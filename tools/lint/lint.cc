#include "lint.h"

#include "token.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

namespace ecodb::lint {

namespace {

// --- The scanner ------------------------------------------------------------

const std::set<std::string>& Ec1CallNames() {
  static const std::set<std::string> kNames = {
      "SubmitRead",   "SubmitWrite", "ChargeCpuCoresAt",
      "ChargeDramAccess", "AdvanceTo", "meter"};
  return kNames;
}

bool ContainsCharged(const std::string& s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("charged") != std::string::npos;
}

bool ContainsSpill(const std::string& s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("spill") != std::string::npos;
}

/// EC6: identifiers that mark a loop as a retry loop.
bool IsRetryMarker(const std::string& s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("retry") != std::string::npos ||
         lower.find("retries") != std::string::npos ||
         lower.find("backoff") != std::string::npos ||
         lower.find("attempt") != std::string::npos;
}

/// EC6: calls that book a retry's energy on the meter.
bool IsRetryChargeName(const std::string& t) {
  return t.rfind("AddEnergy", 0) == 0 || t.rfind("ChargeRetry", 0) == 0;
}

struct Scope {
  std::string guard;  // if-condition guarding this scope, if any
  Region region = Region::kNone;
};

class Scanner {
 public:
  Scanner(std::string path_label, const std::string& content,
          const std::set<std::string>& extra_unordered)
      : path_(std::move(path_label)),
        directives_(ScanDirectives(content)),
        tokens_(Tokenize(content)),
        lines_(SplitLines(content)),
        unordered_names_(extra_unordered) {
    in_exec_ = path_.find("src/exec") != std::string::npos;
    in_sched_ = path_.find("src/sched") != std::string::npos;
    in_storage_ = path_.find("src/storage") != std::string::npos;
    // EC7 applies to serving paths: sched sources that talk to the
    // SessionManager (directly or by implementing it).
    serving_scope_ =
        in_sched_ && content.find("SessionManager") != std::string::npos;
  }

  std::vector<Finding> Run();

 private:
  static std::vector<std::string> SplitLines(const std::string& src) {
    std::vector<std::string> lines;
    std::istringstream in(src);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
    return lines;
  }

  std::string LineText(int line) const {
    return (line >= 1 && line <= static_cast<int>(lines_.size()))
               ? Trim(lines_[static_cast<size_t>(line - 1)])
               : "";
  }

  void Report(const std::string& rule, int line, const std::string& message) {
    if (directives_.Suppressed(rule, line)) return;
    if (!seen_.insert(rule + ":" + std::to_string(line)).second) return;
    findings_.push_back({rule, path_, line, message, LineText(line)});
  }

  /// Applies region annotations whose line has been reached.
  void ApplyDirectivesUpTo(int line) {
    while (next_region_ != directives_.region.end() &&
           next_region_->first <= line) {
      if (!scopes_.empty()) scopes_.back().region = next_region_->second;
      ++next_region_;
    }
  }

  Region CurrentRegion() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->region != Region::kNone) return it->region;
    }
    return Region::kNone;
  }

  bool GuardMentionsCharged() const {
    if (!stmt_guard_.empty() && ContainsCharged(stmt_guard_)) return true;
    for (const Scope& s : scopes_) {
      if (ContainsCharged(s.guard)) return true;
    }
    return false;
  }

  const Token* Prev(size_t i) const {
    return i > 0 ? &tokens_[i - 1] : nullptr;
  }
  const Token* Next(size_t i) const {
    return i + 1 < tokens_.size() ? &tokens_[i + 1] : nullptr;
  }

  /// identifier followed by '(' used as a call (not a declaration,
  /// definition, or qualified mention).
  bool IsCall(size_t i) const {
    const Token* next = Next(i);
    if (next == nullptr || next->text != "(") return false;
    const Token* prev = Prev(i);
    if (prev == nullptr) return true;
    if (prev->text == "::" || prev->text == "~") return false;
    if (prev->ident && !IsStatementKeyword(prev->text)) return false;
    return true;
  }

  /// Joins the token texts in [from, to) — condition and argument capture.
  std::string JoinTokens(size_t from, size_t to) const {
    std::string s;
    for (size_t k = from; k < to && k < tokens_.size(); ++k) {
      if (!s.empty()) s += ' ';
      s += tokens_[k].text;
    }
    return s;
  }

  /// Index one past the ')' matching the '(' at `open`.
  size_t MatchParen(size_t open) const {
    int depth = 0;
    for (size_t k = open; k < tokens_.size(); ++k) {
      if (tokens_[k].text == "(") ++depth;
      if (tokens_[k].text == ")" && --depth == 0) return k + 1;
    }
    return tokens_.size();
  }

  /// Index one past the '}' matching the '{' at `open`.
  size_t MatchBrace(size_t open) const {
    int depth = 0;
    for (size_t k = open; k < tokens_.size(); ++k) {
      if (tokens_[k].text == "{") ++depth;
      if (tokens_[k].text == "}" && --depth == 0) return k + 1;
    }
    return tokens_.size();
  }

  void HarvestDeclaration(size_t i);
  void CheckRangeFor(size_t header_begin, size_t header_end);
  void CheckRetryLoops();

  std::string path_;
  LineDirectives directives_;
  std::vector<Token> tokens_;
  std::vector<std::string> lines_;
  std::set<std::string> unordered_names_;
  bool in_exec_ = false;
  bool in_sched_ = false;
  bool in_storage_ = false;
  bool serving_scope_ = false;

  std::vector<Scope> scopes_;
  std::map<int, Region>::const_iterator next_region_;
  std::string pending_guard_;       // if-condition awaiting its '{'
  bool pending_guard_valid_ = false;
  std::string stmt_guard_;          // brace-less if: guards until next ';'
  size_t stmt_guard_depth_ = 0;

  std::set<std::string> seen_;
  std::vector<Finding> findings_;
};

/// Registers the variable name declared with an unordered container type
/// starting at token `i` (which is the unordered_* type token).
void Scanner::HarvestDeclaration(size_t i) {
  size_t k = i + 1;
  int angle = 0;
  std::string last_ident;
  for (; k < tokens_.size(); ++k) {
    const std::string& t = tokens_[k].text;
    if (t == "<") {
      ++angle;
      continue;
    }
    if (t == ">") {
      if (angle > 0) --angle;
      continue;
    }
    if (angle > 0) continue;
    if (t == ";" || t == "=" || t == "(" || t == "{" || t == ":" ||
        t == ")" || t == ",") {
      break;
    }
    if (tokens_[k].ident) last_ident = t;
  }
  if (!last_ident.empty()) unordered_names_.insert(last_ident);
}

/// EC5: range-for headers whose range expression is an unordered container.
void Scanner::CheckRangeFor(size_t header_begin, size_t header_end) {
  // Find the top-level ':' splitting declaration from range expression.
  int paren = 0, angle = 0;
  size_t colon = header_end;
  for (size_t k = header_begin; k < header_end; ++k) {
    const std::string& t = tokens_[k].text;
    if (t == "(") ++paren;
    if (t == ")") --paren;
    if (t == "<") ++angle;
    if (t == ">" && angle > 0) --angle;
    if (t == ":" && paren == 0 && angle == 0) {
      colon = k;
      break;
    }
  }
  if (colon == header_end) return;  // classic for loop
  for (size_t k = colon + 1; k < header_end; ++k) {
    const Token& t = tokens_[k];
    if (!t.ident) continue;
    if (IsUnorderedTypeName(t.text) || unordered_names_.count(t.text)) {
      Report("EC5", t.line,
             "range-for over unordered container '" + t.text +
                 "': iteration order must not feed emitted rows or charge "
                 "order (sort first, or justify with NOLINT-ECODB(EC5))");
      return;
    }
  }
}

/// EC6: a retry loop in src/storage that re-submits device I/O must book the
/// failed attempt's energy on the meter before (or while) re-submitting. A
/// loop counts as a retry loop when its header or body mentions a retry
/// marker (retry / backoff / attempt) and it contains a Submit* call; it is
/// compliant when the loop also calls an AddEnergy* / ChargeRetry* entry
/// point. Simulated failures that cost nothing make degraded-mode energy
/// look free — exactly the accounting hole the fault model exists to close.
void Scanner::CheckRetryLoops() {
  for (size_t i = 0; i < tokens_.size(); ++i) {
    const Token& tok = tokens_[i];
    if (!tok.ident) continue;
    if (tok.text != "for" && tok.text != "while" && tok.text != "do") continue;
    // Locate the body: skip the (header) for for/while; `do` bodies start
    // immediately. Brace-less bodies run to the next ';'.
    size_t body = i + 1;
    if (tok.text != "do") {
      if (body >= tokens_.size() || tokens_[body].text != "(") continue;
      body = MatchParen(body);
    }
    if (body >= tokens_.size()) continue;
    size_t end;
    if (tokens_[body].text == "{") {
      end = MatchBrace(body);
    } else {
      end = body;
      while (end < tokens_.size() && tokens_[end].text != ";") ++end;
    }
    bool submits = false, retry_marker = false, charged = false;
    int submit_line = tok.line;
    // The header participates: `for (int attempt = ...)` marks the loop.
    for (size_t k = i + 1; k < end; ++k) {
      const Token& t = tokens_[k];
      if (!t.ident) continue;
      if (t.text.rfind("Submit", 0) == 0 && IsCall(k)) {
        if (!submits) submit_line = t.line;
        submits = true;
      }
      if (IsRetryMarker(t.text)) retry_marker = true;
      if (IsRetryChargeName(t.text) && IsCall(k)) charged = true;
    }
    if (submits && retry_marker && !charged) {
      Report("EC6", submit_line,
             "retry loop re-submits device I/O without charging the meter: "
             "book every failed attempt (ChargeRetry* / AddEnergy*) before "
             "re-submitting — retries that cost nothing falsify the "
             "degraded-mode energy model");
    }
  }
}

std::vector<Finding> Scanner::Run() {
  next_region_ = directives_.region.begin();
  const bool ec12_scope = in_exec_ || in_sched_;
  if (in_storage_) CheckRetryLoops();

  for (size_t i = 0; i < tokens_.size(); ++i) {
    const Token& tok = tokens_[i];
    ApplyDirectivesUpTo(tok.line);

    // ---- scope bookkeeping -------------------------------------------------
    if (tok.text == "{") {
      Scope s;
      if (pending_guard_valid_) {
        s.guard = pending_guard_;
        pending_guard_valid_ = false;
        stmt_guard_.clear();  // the guard now lives on the scope
      }
      scopes_.push_back(std::move(s));
      continue;
    }
    if (tok.text == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      if (scopes_.size() <= stmt_guard_depth_) stmt_guard_.clear();
      continue;
    }
    if (tok.text == ";") {
      if (!stmt_guard_.empty() && scopes_.size() <= stmt_guard_depth_) {
        stmt_guard_.clear();
        pending_guard_valid_ = false;  // brace-less if: statement over
      }
      continue;
    }

    if (tok.ident && tok.text == "if") {
      const Token* next = Next(i);
      if (next != nullptr && next->text == "(") {
        const size_t close = MatchParen(i + 1);
        pending_guard_ = JoinTokens(i + 2, close - 1);
        pending_guard_valid_ = true;
        stmt_guard_ = pending_guard_;  // holds until '{' or ';'
        stmt_guard_depth_ = scopes_.size();
        i = close - 1;  // resume at ')'
      }
      continue;
    }

    if (tok.ident && tok.text == "for") {
      const Token* next = Next(i);
      if (next != nullptr && next->text == "(") {
        const size_t close = MatchParen(i + 1);
        if (in_exec_) CheckRangeFor(i + 2, close - 1);
        // Harvest declarations made inside the header, then resume there so
        // normal scanning still sees the body.
        for (size_t k = i + 2; k + 1 < close; ++k) {
          if (tokens_[k].ident && IsUnorderedTypeName(tokens_[k].text)) {
            HarvestDeclaration(k);
          }
        }
        i = close - 1;
      }
      continue;
    }

    if (tok.ident && IsUnorderedTypeName(tok.text)) {
      HarvestDeclaration(i);
      // fall through: the token may still matter to other rules (it doesn't
      // today, but keep the stream intact).
    }

    if (!tok.ident) continue;

    // ---- EC5: banned nondeterminism sources -------------------------------
    if (in_exec_ && BannedEntropyNames().count(tok.text)) {
      Report("EC5", tok.line,
             "'" + tok.text +
                 "' is nondeterministic: accounting and row order must be "
                 "pure functions of the input and the plan");
      continue;
    }

    // ---- EC7: anonymous ExecContext on a serving path ---------------------
    if (serving_scope_ && tok.text == "ExecContext") {
      const Token* prev = Prev(i);
      const Token* next = Next(i);
      const bool record_decl =
          prev != nullptr && (prev->text == "class" || prev->text == "struct");
      const bool ctor_def =
          prev != nullptr && prev->text == "::" && i >= 2 &&
          tokens_[i - 2].text == "ExecContext";
      const bool dtor = prev != nullptr && prev->text == "~";
      size_t open = tokens_.size();
      if (!record_decl && !ctor_def && !dtor && next != nullptr) {
        if (next->text == "(") {
          open = i + 1;  // qualified temporary: exec::ExecContext(...)
        } else if (i + 2 < tokens_.size() && tokens_[i + 2].text == "(" &&
                   (next->text == ">" || next->ident)) {
          open = i + 2;  // make_unique<...ExecContext>(...) or named local
        }
      }
      if (open < tokens_.size()) {
        std::string args = JoinTokens(open + 1, MatchParen(open) - 1);
        std::transform(args.begin(), args.end(), args.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (args.find("session") == std::string::npos) {
          Report("EC7", tok.line,
                 "ExecContext constructed on a serving path without a "
                 "session identity: every Joule must be attributable to the "
                 "causing session (pass a SessionTag, see DESIGN.md §12)");
        }
        continue;
      }
    }

    // ---- EC1: bypassing ExecContext::Charge* ------------------------------
    if (ec12_scope && tok.text == "EnergyMeter") {
      Report("EC1", tok.line,
             "direct EnergyMeter use: all energy flows through "
             "ExecContext::Charge* (see DESIGN.md §6)");
      continue;
    }
    if (ec12_scope && Ec1CallNames().count(tok.text) && IsCall(i)) {
      Report("EC1", tok.line,
             "'" + tok.text +
                 "' bypasses ExecContext::Charge*: devices, the meter, the "
                 "platform charge entry points, and the simulated clock are "
                 "owned by the accounting layer");
      // fall through to EC2/EC4 checks below (Charge* names overlap)
    }

    // ---- EC2 / EC4: charge placement --------------------------------------
    const bool charge_like =
        tok.text.rfind("Charge", 0) == 0 || tok.text == "Finish";
    if (ec12_scope && charge_like && IsCall(i)) {
      const Region region = CurrentRegion();
      if (region == Region::kWorker) {
        Report("EC2", tok.line,
               "'" + tok.text +
                   "' inside a worker-context region: workers tally into "
                   "WorkAccumulator; settlement is coordinator-only");
      } else if (directives_.has_worker_region &&
                 region != Region::kCoordinator) {
        Report("EC2", tok.line,
               "'" + tok.text +
                   "' outside a coordinator-only region in a file with "
                   "worker regions: annotate the settlement scope");
      }

      if (tok.text == "ChargeRead" || tok.text == "ChargeWrite") {
        const size_t close = MatchParen(i + 1);
        const std::string args = JoinTokens(i + 2, close - 1);
        if (ContainsSpill(args) && !ContainsCharged(args) &&
            !GuardMentionsCharged()) {
          Report("EC4", tok.line,
                 "spill " + tok.text +
                     " without a watermark guard: spill I/O must be billed "
                     "exactly once across Open retries (guard with a "
                     "*_charged_ watermark)");
        }
      }
    }
  }
  return findings_;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<Finding> LintSource(
    const std::string& path_label, const std::string& content,
    const std::set<std::string>& extra_unordered_names) {
  return Scanner(path_label, content, extra_unordered_names).Run();
}

std::set<std::string> HarvestUnorderedNames(const std::string& content) {
  return CollectUnorderedNames(Tokenize(content));
}

std::string Fingerprint(const Finding& f) {
  return f.rule + "|" + f.file + "|" + f.snippet;
}

std::set<std::string> ParseBaseline(const std::string& content) {
  std::set<std::string> out;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    out.insert(line);
  }
  return out;
}

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline) {
  std::vector<Finding> kept;
  for (const Finding& f : findings) {
    if (baseline.count(Fingerprint(f)) == 0) kept.push_back(f);
  }
  return kept;
}

std::string RenderText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n    " << f.snippet << "\n";
  }
  out << (findings.empty() ? "ecodb-lint: clean\n"
                           : "ecodb-lint: " + std::to_string(findings.size()) +
                                 " finding(s)\n");
  return out.str();
}

std::string RenderJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\"version\":\"ecodb-lint.v1\",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"rule\":\"" << JsonEscape(f.rule) << "\",\"file\":\""
        << JsonEscape(f.file) << "\",\"line\":" << f.line << ",\"message\":\""
        << JsonEscape(f.message) << "\",\"snippet\":\""
        << JsonEscape(f.snippet) << "\"}";
  }
  out << "],\"count\":" << findings.size() << "}\n";
  return out.str();
}

std::string RenderBaseline(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "# ecodb-lint baseline: one fingerprint (rule|file|line text) per\n"
         "# line. Entries here are known, accepted findings; remove a line\n"
         "# once its violation is fixed. Prefer NOLINT-ECODB annotations\n"
         "# with a justification for anything long-lived.\n";
  for (const Finding& f : findings) out << Fingerprint(f) << "\n";
  return out.str();
}

}  // namespace ecodb::lint
