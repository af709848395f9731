// Shared lexical layer for ecodb-lint: the tokenizer, line-directive
// scanner (NOLINT-ECODB / ecodb-lint: annotations), and the name predicates
// that both the per-file scanner (EC1–EC7, lint.cc) and the cross-TU
// analyzer (EC8–EC10, index.cc / interproc.cc) agree on.
//
// Keeping one tokenizer is load-bearing: a finding's line number and the
// suppression that excuses it must come from the same lexical model, or a
// NOLINT would drift off its statement between passes.

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

// --- Shared name predicates -------------------------------------------------

/// Entropy / wall-clock identifiers banned by EC5 (textually, in src/exec)
/// and EC8 (transitively, from any exec/sched entry point).
const std::set<std::string>& BannedEntropyNames();

bool IsUnorderedTypeName(const std::string& t);

bool IsStatementKeyword(const std::string& t);

/// Names that perform energy settlement (EC2 placement, EC9 under-lock):
/// Charge*, Settle*, Finish.
bool IsSettlementName(const std::string& t);

/// Collects names declared with an unordered container type in the token
/// stream (the engine behind HarvestUnorderedNames and the index's per-file
/// unordered-name sets).
std::set<std::string> CollectUnorderedNames(const std::vector<Token>& tokens);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_TOKEN_H_
