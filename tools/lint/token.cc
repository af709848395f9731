#include "token.h"

#include <cctype>
#include <sstream>

namespace ecodb::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Strips the trailing // comment from a source line (naive: the sources
/// never hide `//` inside string literals on annotated lines).
std::string CodePart(const std::string& line) {
  const size_t comment = line.find("//");
  return Trim(comment == std::string::npos ? line : line.substr(0, comment));
}

/// A statement is closed on a line whose code ends in `;`, `{`, or `}` —
/// anything else (a trailing `(`, `,`, operator, or bare name) continues
/// onto the next line, and a suppression granted to the statement must
/// travel with it.
bool StatementContinues(const std::string& code) {
  if (code.empty()) return false;
  const char last = code.back();
  return last != ';' && last != '{' && last != '}';
}

}  // namespace

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<Token> Tokenize(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  bool at_line_start = true;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {  // preprocessor directive: skip line(s)
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line count honest
        ++i;
      }
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      out.push_back({src.substr(i, j - i), line, true});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.')) ++j;
      out.push_back({src.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.push_back({"::", line, false});
      i += 2;
      continue;
    }
    if ((c == '-' || c == '=') && i + 1 < n && src[i + 1] == '>') {
      out.push_back({std::string(1, c) + ">", line, false});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line, false});
    ++i;
  }
  return out;
}

LineDirectives ScanDirectives(const std::string& src) {
  LineDirectives d;
  std::vector<std::string> lines;
  {
    std::istringstream in(src);
    std::string text;
    while (std::getline(in, text)) lines.push_back(text);
  }

  // Caps runaway propagation if a statement never visibly closes (e.g. an
  // unterminated macro table); real statements close within a few lines.
  constexpr int kMaxContinuationLines = 50;

  int line = 0;
  for (const std::string& text : lines) {
    ++line;
    const size_t comment = text.find("//");
    if (comment == std::string::npos) continue;
    const std::string body = text.substr(comment + 2);
    const bool standalone = Trim(text.substr(0, comment)).empty();

    const size_t nl = body.find("NOLINT-ECODB");
    if (nl != std::string::npos) {
      std::set<std::string> rules;
      size_t p = nl + std::string("NOLINT-ECODB").size();
      if (p < body.size() && body[p] == '(') {
        const size_t close = body.find(')', p);
        std::istringstream list(body.substr(p + 1, close == std::string::npos
                                                       ? std::string::npos
                                                       : close - p - 1));
        std::string rule;
        while (std::getline(list, rule, ',')) {
          rule = Trim(rule);
          if (!rule.empty()) rules.insert(rule);
        }
      }
      if (rules.empty()) rules.insert("*");
      d.nolint[line].insert(rules.begin(), rules.end());
      // The first code line the suppression covers: this line when the
      // comment trails code, the next line when the comment stands alone.
      int covered = standalone ? line + 1 : line;
      if (standalone && covered <= static_cast<int>(lines.size())) {
        d.nolint[covered].insert(rules.begin(), rules.end());
      }
      // A suppression on a statement's first line covers its multi-line
      // continuation: propagate until the statement closes.
      for (int hops = 0; hops < kMaxContinuationLines; ++hops) {
        if (covered < 1 || covered > static_cast<int>(lines.size())) break;
        const std::string code = CodePart(lines[static_cast<size_t>(covered - 1)]);
        if (!StatementContinues(code)) break;
        ++covered;
        if (covered > static_cast<int>(lines.size())) break;
        d.nolint[covered].insert(rules.begin(), rules.end());
      }
    }

    const size_t mark = body.find("ecodb-lint:");
    if (mark != std::string::npos) {
      const std::string what =
          Trim(body.substr(mark + std::string("ecodb-lint:").size()));
      if (what.rfind("worker-context", 0) == 0) {
        d.region[line] = Region::kWorker;
        d.has_worker_region = true;
      } else if (what.rfind("coordinator-only", 0) == 0) {
        d.region[line] = Region::kCoordinator;
      }
    }
  }
  return d;
}

const std::set<std::string>& BannedEntropyNames() {
  static const std::set<std::string> kNames = {
      "rand",          "srand",         "drand48",
      "lrand48",       "random_device", "random_shuffle",
      "system_clock",  "steady_clock",  "high_resolution_clock",
      "gettimeofday",  "clock_gettime"};
  return kNames;
}

bool IsUnorderedTypeName(const std::string& t) {
  return t.rfind("unordered_", 0) == 0;
}

bool IsStatementKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "return", "if", "else", "while", "for", "do", "switch", "case", "co_return"};
  return kKeywords.count(t) > 0;
}

bool IsSettlementName(const std::string& t) {
  return t.rfind("Charge", 0) == 0 || t.rfind("Settle", 0) == 0 ||
         t == "Finish";
}

std::set<std::string> CollectUnorderedNames(const std::vector<Token>& tokens) {
  std::set<std::string> names;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!tokens[i].ident || !IsUnorderedTypeName(tokens[i].text)) continue;
    size_t k = i + 1;
    int angle = 0;
    std::string last_ident;
    for (; k < tokens.size(); ++k) {
      const std::string& t = tokens[k].text;
      if (t == "<") { ++angle; continue; }
      if (t == ">") { if (angle > 0) --angle; continue; }
      if (angle > 0) continue;
      if (t == ";" || t == "=" || t == "(" || t == "{" || t == ":" ||
          t == ")" || t == ",") {
        break;
      }
      if (tokens[k].ident) last_ident = t;
    }
    if (!last_ident.empty()) names.insert(last_ident);
  }
  return names;
}

}  // namespace ecodb::lint
