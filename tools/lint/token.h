// Lexical layer for ecodb-lint: the tokenizer, the line-directive scanner
// (NOLINT-ECODB / ecodb-lint: annotations), and the name predicates the
// rules in lint.cc share.
//
// A finding's line number and the suppression that excuses it come from
// the same lexical model, so a NOLINT cannot drift off its statement.

#ifndef ECODB_TOOLS_LINT_TOKEN_H_
#define ECODB_TOOLS_LINT_TOKEN_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ecodb::lint {

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;  // identifier or keyword (vs punctuation/number)
};

/// Comments, string/char literals, and preprocessor lines carry no contract
/// semantics (annotations are collected in a separate line pass), so the
/// token stream drops them. `::` is one token so qualified names and
/// range-for colons can't be confused.
std::vector<Token> Tokenize(const std::string& src);

std::string Trim(const std::string& s);

// --- Line-level annotations -------------------------------------------------

enum class Region { kNone, kWorker, kCoordinator };

struct LineDirectives {
  // line -> rules suppressed on it ("*" = all)
  std::map<int, std::set<std::string>> nolint;
  // comment line -> the rules its NOLINT-ECODB(...) names (bare: absent)
  std::map<int, std::set<std::string>> named;
  // line -> region annotation taking effect there
  std::map<int, Region> region;
  bool has_worker_region = false;

  /// True when `rule` is suppressed on `line`.
  bool Suppressed(const std::string& rule, int line) const {
    auto it = nolint.find(line);
    return it != nolint.end() &&
           (it->second.count("*") > 0 || it->second.count(rule) > 0);
  }
};

/// Scans annotation comments. A NOLINT-ECODB on a code line covers that
/// line and, when the statement continues past it (the code does not end in
/// `;`, `{`, or `}`), every continuation line until the statement closes; a
/// comment-only NOLINT line shields the statement that starts below it with
/// the same continuation rule.
LineDirectives ScanDirectives(const std::string& src);

// --- Name predicates ---------------------------------------------------------

/// Entropy / wall-clock identifiers EC5 bans under src/.
const std::set<std::string>& BannedEntropyNames();

bool IsUnorderedTypeName(const std::string& t);

bool IsStatementKeyword(const std::string& t);

/// Collects names declared with an unordered container type in the token
/// stream (the engine behind HarvestUnorderedNames).
std::set<std::string> CollectUnorderedNames(const std::vector<Token>& tokens);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_TOKEN_H_
