#include "index.h"

#include <algorithm>
#include <climits>
#include <sstream>

namespace ecodb::lint {

namespace {

// Statement keywords that disqualify a token sequence from being a call
// prefix or a function name.
bool IsControlName(const std::string& t) {
  static const std::set<std::string> kNames = {
      "if",    "for",    "while",  "switch",   "catch",  "return",
      "throw", "sizeof", "delete", "co_return", "co_await", "new",
      "else",  "do",     "case",   "goto",     "break",  "continue",
      "alignof", "decltype", "static_assert", "assert", "defined"};
  return kNames.count(t) > 0;
}

bool IsLockGuardType(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "shared_lock" ||
         t == "scoped_lock";
}

/// Tokens that may trail a function's parameter list before its body.
bool IsPostParamToken(const std::string& t) {
  return t == "const" || t == "noexcept" || t == "override" || t == "final" ||
         t == "mutable" || t == "&" || t == "&&" || t == "try";
}

struct HeldLock {
  std::string lock_id;
  int depth = 0;          // brace depth at acquisition (released on exit)
  std::string guard_var;  // "" for direct mutex .lock()
};

class FileIndexer {
 public:
  FileIndexer(const std::string& path, const std::vector<Token>& tokens,
              std::set<std::string> unordered_names,
              std::vector<FunctionInfo>* out)
      : path_(path),
        toks_(tokens),
        unordered_names_(std::move(unordered_names)),
        out_(out) {}

  void Walk();

 private:
  size_t MatchParen(size_t open) const {
    int depth = 0;
    for (size_t k = open; k < toks_.size(); ++k) {
      if (toks_[k].text == "(") ++depth;
      if (toks_[k].text == ")" && --depth == 0) return k + 1;
    }
    return toks_.size();
  }
  size_t MatchBrace(size_t open) const {
    int depth = 0;
    for (size_t k = open; k < toks_.size(); ++k) {
      if (toks_[k].text == "{") ++depth;
      if (toks_[k].text == "}" && --depth == 0) return k + 1;
    }
    return toks_.size();
  }
  /// One past the '>' matching the '<' at `open`; paren-aware so guarded
  /// comparisons inside template headers don't unbalance the count.
  size_t MatchAngle(size_t open) const {
    int angle = 0, paren = 0;
    for (size_t k = open; k < toks_.size(); ++k) {
      const std::string& t = toks_[k].text;
      if (t == "(") ++paren;
      if (t == ")") --paren;
      if (paren > 0) continue;
      if (t == "<") ++angle;
      if (t == ">" && --angle == 0) return k + 1;
      if (t == ";" || t == "{") break;  // runaway: not a template header
    }
    return open + 1;
  }

  /// Splits the token range (open..close-1], exclusive of the parens, on
  /// top-level commas; returns the joined text of each argument.
  std::vector<std::string> SplitArgs(size_t open, size_t close) const {
    std::vector<std::string> args;
    std::string cur;
    int paren = 0, angle = 0, brace = 0;
    for (size_t k = open + 1; k + 1 < close; ++k) {
      const std::string& t = toks_[k].text;
      if (t == "(") ++paren;
      if (t == ")") --paren;
      if (t == "{") ++brace;
      if (t == "}") --brace;
      if (t == "<") ++angle;
      if (t == ">" && angle > 0) --angle;
      if (t == "," && paren == 0 && angle == 0 && brace == 0) {
        args.push_back(cur);
        cur.clear();
        continue;
      }
      cur += (cur.empty() ? "" : " ") + t;
    }
    if (!cur.empty()) args.push_back(cur);
    return args;
  }

  std::string QualifyLock(const std::string& expr) const {
    // A bare trailing-underscore name is a member; scope it to the class so
    // `Catalog::mu_` in two TUs is one lock and `Other::mu_` is another.
    if (!current_class_.empty() && !expr.empty() &&
        expr.find(' ') == std::string::npos && expr.back() == '_') {
      return current_class_ + "::" + expr;
    }
    return expr;
  }

  // --- function-definition candidate ---------------------------------------

  /// Tries to parse a function definition whose name is at `i` (ident
  /// followed by '('). On success records the function, walks its body, and
  /// returns the index one past the body. On failure returns 0.
  size_t TryFunctionDef(size_t i);

  void WalkBody(FunctionInfo* fn, size_t open, size_t close);
  void CheckRangeFor(FunctionInfo* fn, size_t header_begin, size_t header_end);

  std::string path_;
  const std::vector<Token>& toks_;
  std::set<std::string> unordered_names_;
  std::vector<FunctionInfo>* out_;

  struct ScopeEntry {
    enum Kind { kNamespace, kRecord, kOther } kind = kOther;
    std::string name;
  };
  std::vector<ScopeEntry> scopes_;
  // Per consumed '{' at declaration scope: how many ScopeEntry items it
  // opened (a nested-namespace `namespace a::b {` opens two).
  std::vector<int> brace_entry_counts_;
  std::string current_class_;  // innermost record while walking a body
};

size_t FileIndexer::TryFunctionDef(size_t i) {
  const std::string& name = toks_[i].text;
  if (IsControlName(name)) return 0;
  const size_t close = MatchParen(i + 1);
  if (close >= toks_.size()) return 0;

  // Name chain: A::B::name — collect backwards.
  std::vector<std::string> chain;
  size_t back = i;
  while (back >= 2 && toks_[back - 1].text == "::" && toks_[back - 2].ident) {
    chain.insert(chain.begin(), toks_[back - 2].text);
    back -= 2;
  }
  const size_t name_begin = back;
  if (name_begin > 0 && toks_[name_begin - 1].text == "~") return 0;  // dtor
  // `Foo bar(...)` is a declaration of bar, not a call or def of Foo's
  // caller; but here `name` is bar and prev is a type token — that IS the
  // definition shape (type then name), so no exclusion on prev idents.

  // Post-parameter region: cv/ref/noexcept/attrs, trailing return, or a
  // constructor initializer list; ends at '{' (definition) or ';'/'='
  // (declaration).
  size_t j = close;
  bool saw_init_list = false;
  while (j < toks_.size()) {
    const std::string& t = toks_[j].text;
    if (IsPostParamToken(t)) {
      ++j;
      if (t == "noexcept" && j < toks_.size() && toks_[j].text == "(") {
        j = MatchParen(j);
      }
      continue;
    }
    if (t == "[" && j + 1 < toks_.size() && toks_[j + 1].text == "[") {
      int depth = 0;
      while (j < toks_.size()) {
        if (toks_[j].text == "[") ++depth;
        if (toks_[j].text == "]" && --depth == 0) break;
        ++j;
      }
      ++j;
      continue;
    }
    if (t == "->") {  // trailing return type
      ++j;
      while (j < toks_.size() && toks_[j].text != "{" &&
             toks_[j].text != ";" && toks_[j].text != "=") {
        if (toks_[j].text == "<") {
          j = MatchAngle(j);
          continue;
        }
        ++j;
      }
      continue;
    }
    if (t == ":") {  // constructor initializer list
      saw_init_list = true;
      ++j;
      while (j < toks_.size()) {
        // member name (possibly qualified/templated base)
        while (j < toks_.size() &&
               (toks_[j].ident || toks_[j].text == "::")) {
          ++j;
        }
        if (j < toks_.size() && toks_[j].text == "<") j = MatchAngle(j);
        if (j >= toks_.size()) break;
        if (toks_[j].text == "(") {
          j = MatchParen(j);
        } else if (toks_[j].text == "{") {
          j = MatchBrace(j);
        } else {
          break;  // malformed; bail below
        }
        if (j < toks_.size() && toks_[j].text == ",") {
          ++j;
          continue;
        }
        break;
      }
      continue;
    }
    break;
  }
  if (j >= toks_.size()) return 0;
  if (toks_[j].text != "{") {
    (void)saw_init_list;
    return 0;  // declaration, `= default`, variable init, expression...
  }

  FunctionInfo fn;
  fn.simple = name;
  fn.file = path_;
  fn.line = toks_[i].line;

  std::vector<std::string> parts;
  for (const ScopeEntry& s : scopes_) {
    if (s.kind != ScopeEntry::kOther) parts.push_back(s.name);
  }
  parts.insert(parts.end(), chain.begin(), chain.end());
  // The innermost record/qualifier is the class for member functions.
  if (!chain.empty()) {
    fn.class_name = chain.back();
  } else if (!scopes_.empty() && scopes_.back().kind == ScopeEntry::kRecord) {
    fn.class_name = scopes_.back().name;
  }
  std::string qualified;
  for (const std::string& p : parts) qualified += p + "::";
  qualified += name;
  fn.qualified = qualified;

  // Arity from the parameter list.
  const std::vector<std::string> params = SplitArgs(i + 1, close);
  int max_arity = 0, min_arity = 0;
  bool counting_required = true;
  for (const std::string& p : params) {
    if (p == "void") continue;
    if (p.find("...") != std::string::npos || p == ". . .") {
      max_arity = INT_MAX;
      continue;
    }
    if (max_arity != INT_MAX) ++max_arity;
    if (p.find('=') != std::string::npos) counting_required = false;
    if (counting_required) ++min_arity;
  }
  fn.min_arity = min_arity;
  fn.max_arity = max_arity;

  // Return type: tokens before the name chain, same statement. Walk back
  // over type-ish tokens; a Status/StatusOr mention marks the return.
  for (size_t k = name_begin; k-- > 0;) {
    const std::string& t = toks_[k].text;
    if (t == ";" || t == "{" || t == "}" || t == ")" ||
        IsControlName(t)) {
      break;
    }
    if (t == "Status" || t == "StatusOr") {
      fn.returns_status = true;
      break;
    }
  }

  const std::string saved_class = current_class_;
  if (!fn.class_name.empty()) current_class_ = fn.class_name;
  const size_t body_end = MatchBrace(j);
  WalkBody(&fn, j, body_end);
  current_class_ = saved_class;
  out_->push_back(std::move(fn));
  return body_end;
}

void FileIndexer::CheckRangeFor(FunctionInfo* fn, size_t header_begin,
                                size_t header_end) {
  int paren = 0, angle = 0;
  size_t colon = header_end;
  for (size_t k = header_begin; k < header_end; ++k) {
    const std::string& t = toks_[k].text;
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
    const Token& t = toks_[k];
    if (!t.ident) continue;
    if (IsUnorderedTypeName(t.text) || unordered_names_.count(t.text)) {
      fn->unordered_iters.push_back({t.text, t.line});
      return;
    }
  }
}

void FileIndexer::WalkBody(FunctionInfo* fn, size_t open, size_t close) {
  int depth = 0;  // relative to the body's own braces
  std::vector<HeldLock> held;
  std::map<std::string, std::vector<std::string>> guard_mutexes;
  size_t stmt_start = open;  // index of the token that closed the previous
                             // statement ('{', '}', or ';')
  std::vector<size_t> outer_starts;  // stmt_start outside each open '{'

  auto release_to_depth = [&](int d) {
    held.erase(std::remove_if(held.begin(), held.end(),
                              [&](const HeldLock& h) { return h.depth > d; }),
               held.end());
  };
  auto held_ids = [&]() {
    std::vector<std::string> ids;
    for (const HeldLock& h : held) ids.push_back(h.lock_id);
    return ids;
  };
  auto acquire = [&](const std::string& id, int line,
                     const std::string& guard_var) {
    for (const HeldLock& h : held) {
      fn->lock_edges.push_back({h.lock_id, id, line});
    }
    fn->acquires.push_back({id, line});
    held.push_back({id, depth, guard_var});
  };

  for (size_t k = open + 1; k + 1 < close; ++k) {
    const Token& tok = toks_[k];
    const std::string& t = tok.text;

    if (t == "{") {
      ++depth;
      outer_starts.push_back(stmt_start);
      stmt_start = k;
      continue;
    }
    if (t == "}") {
      --depth;
      release_to_depth(depth);
      stmt_start = k;
      // `T{...}.f()`: the braces initialized a temporary, and the
      // statement they sit in goes on.
      const bool member_next =
          toks_[k + 1].text == "." || toks_[k + 1].text == "->";
      if (!outer_starts.empty()) {
        if (member_next) stmt_start = outer_starts.back();
        outer_starts.pop_back();
      }
      continue;
    }
    if (t == ";") {
      stmt_start = k;
      continue;
    }

    if (!tok.ident) continue;

    // --- banned entropy / wall-clock tokens --------------------------------
    if (BannedEntropyNames().count(t)) {
      fn->entropy.push_back({t, tok.line});
    }

    // --- range-for over unordered containers -------------------------------
    if (t == "for" && k + 1 < close && toks_[k + 1].text == "(") {
      CheckRangeFor(fn, k + 2, MatchParen(k + 1) - 1);
      continue;  // header tokens are still scanned on subsequent iterations
    }

    // --- lock acquisition constructs ---------------------------------------
    if (IsLockGuardType(t)) {
      size_t p = k + 1;
      if (p < close && toks_[p].text == "<") p = MatchAngle(p);
      std::string var;
      if (p < close && toks_[p].ident) {
        var = toks_[p].text;
        ++p;
      }
      if (p < close && toks_[p].text == "(") {
        const size_t cp = MatchParen(p);
        bool deferred = false;
        std::vector<std::string> mutexes;
        for (const std::string& arg : SplitArgs(p, cp)) {
          if (arg.find("defer_lock") != std::string::npos) {
            deferred = true;
            continue;
          }
          if (arg.find("adopt_lock") != std::string::npos ||
              arg.find("try_to_lock") != std::string::npos) {
            continue;
          }
          std::string compact;
          for (char c : arg) {
            if (c != ' ') compact += c;
          }
          if (!compact.empty()) mutexes.push_back(QualifyLock(compact));
        }
        if (!var.empty()) guard_mutexes[var] = mutexes;
        if (!deferred) {
          for (const std::string& m : mutexes) {
            acquire(m, tok.line, var);
          }
        }
        k = cp - 1;
        continue;
      }
    }

    // --- manual .lock() / .unlock() ----------------------------------------
    if ((t == "lock" || t == "unlock") && k >= 2 &&
        (toks_[k - 1].text == "." || toks_[k - 1].text == "->") &&
        toks_[k - 2].ident && k + 1 < close && toks_[k + 1].text == "(") {
      const std::string& obj = toks_[k - 2].text;
      std::vector<std::string> mutexes;
      auto it = guard_mutexes.find(obj);
      if (it != guard_mutexes.end()) {
        mutexes = it->second;
      } else {
        mutexes.push_back(QualifyLock(obj));
      }
      if (t == "lock") {
        for (const std::string& m : mutexes) acquire(m, tok.line, obj);
      } else {
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const HeldLock& h) {
                                    return std::find(mutexes.begin(),
                                                     mutexes.end(),
                                                     h.lock_id) !=
                                           mutexes.end();
                                  }),
                   held.end());
      }
      k = MatchParen(k + 1) - 1;
      continue;
    }

    // --- call sites ---------------------------------------------------------
    if (k + 1 < close && toks_[k + 1].text == "(" && !IsControlName(t)) {
      const Token* prev = k > open ? &toks_[k - 1] : nullptr;
      // `Foo bar(...)` declares bar; a preceding non-keyword identifier
      // means this is a declaration (or a macro'd type), not a call.
      if (prev != nullptr && prev->ident && !IsControlName(prev->text) &&
          prev->text != "return" && prev->text != "co_await") {
        continue;
      }
      if (prev != nullptr && prev->text == "~") continue;

      CallSite call;
      call.name = t;
      call.line = tok.line;
      if (prev != nullptr && prev->text == "::" && k >= 2 &&
          toks_[k - 2].ident) {
        call.qualifier = toks_[k - 2].text;
      }
      call.via_member =
          prev != nullptr && (prev->text == "." || prev->text == "->");
      const size_t cp = MatchParen(k + 1);
      call.arg_count = static_cast<int>(SplitArgs(k + 1, cp).size());
      call.locks_held = held_ids();

      // Discard detection: the call chain starts the statement and the
      // statement ends right after the call's closing paren.
      if (cp < close && toks_[cp].text == ";") {
        bool clean_prefix = true;
        for (size_t q = stmt_start + 1; q < k && clean_prefix; ++q) {
          const Token& p = toks_[q];
          if (p.ident) {
            if (IsControlName(p.text)) clean_prefix = false;
          } else if (p.text == "{" && toks_[q - 1].ident) {
            q = MatchBrace(q) - 1;  // `T{...}.f()`: a braced temporary
          } else if (p.text != "::" && p.text != "." && p.text != "->") {
            clean_prefix = false;
          }
        }
        // The qualifier/member chain must actually connect to this call:
        // `Foo x; x.F();` — stmt tokens are only the chain, checked above.
        call.discards_result = clean_prefix;
      }
      fn->calls.push_back(std::move(call));
      continue;
    }
  }
}

void FileIndexer::Walk() {
  size_t i = 0;
  const size_t n = toks_.size();
  while (i < n) {
    const Token& tok = toks_[i];
    const std::string& t = tok.text;

    if (t == "namespace") {
      size_t j = i + 1;
      std::vector<std::string> names;
      while (j < n && toks_[j].ident) {
        names.push_back(toks_[j].text);
        ++j;
        if (j < n && toks_[j].text == "::") {
          ++j;
          continue;
        }
        break;
      }
      if (j < n && toks_[j].text == "{") {
        if (names.empty()) names.push_back("");  // anonymous
        for (const std::string& nm : names) {
          scopes_.push_back({ScopeEntry::kNamespace, nm});
        }
        brace_entry_counts_.push_back(static_cast<int>(names.size()));
        i = j + 1;
        continue;
      }
      // namespace alias or malformed: skip to ';'
      while (j < n && toks_[j].text != ";") ++j;
      i = j + 1;
      continue;
    }

    if (t == "enum") {
      size_t j = i + 1;
      if (j < n && (toks_[j].text == "class" || toks_[j].text == "struct")) {
        ++j;
      }
      while (j < n && toks_[j].text != "{" && toks_[j].text != ";") ++j;
      if (j < n && toks_[j].text == "{") j = MatchBrace(j);
      i = j;
      continue;
    }

    if (t == "template" && i + 1 < n && toks_[i + 1].text == "<") {
      i = MatchAngle(i + 1);
      continue;
    }

    if (t == "using" || t == "typedef") {
      size_t j = i;
      while (j < n && toks_[j].text != ";") ++j;
      i = j + 1;
      continue;
    }

    if ((t == "struct" || t == "class") &&
        (i == 0 || toks_[i - 1].text != "enum")) {
      size_t j = i + 1;
      std::string name;
      if (j < n && toks_[j].ident) {
        name = toks_[j].text;
        ++j;
      }
      // Scan to the record body or the end of a forward declaration. Base
      // clauses may contain templated names.
      int angle = 0;
      while (j < n) {
        const std::string& u = toks_[j].text;
        if (u == "<") ++angle;
        if (u == ">" && angle > 0) --angle;
        if (angle == 0 && (u == "{" || u == ";" || u == "(" || u == ")" ||
                           u == ">" || u == ",")) {
          break;
        }
        ++j;
      }
      if (j < n && toks_[j].text == "{") {
        scopes_.push_back({ScopeEntry::kRecord, name});
        brace_entry_counts_.push_back(1);
        i = j + 1;
        continue;
      }
      // forward declaration / template parameter / elaborated type
      i = j;
      continue;
    }

    if (tok.ident && i + 1 < n && toks_[i + 1].text == "(") {
      const size_t after = TryFunctionDef(i);
      if (after > 0) {
        i = after;
        continue;
      }
      i = MatchParen(i + 1);
      continue;
    }

    if (t == "{") {
      scopes_.push_back({ScopeEntry::kOther, ""});
      brace_entry_counts_.push_back(1);
      ++i;
      continue;
    }
    if (t == "}") {
      int count = 1;
      if (!brace_entry_counts_.empty()) {
        count = brace_entry_counts_.back();
        brace_entry_counts_.pop_back();
      }
      for (int c = 0; c < count && !scopes_.empty(); ++c) scopes_.pop_back();
      ++i;
      continue;
    }
    ++i;
  }
}

}  // namespace

ProjectIndex BuildProjectIndex(const std::vector<SourceFile>& files) {
  ProjectIndex index;

  // Tokenize everything once; harvest unordered names per file (the file
  // itself plus its sibling header when present in the set).
  std::map<std::string, std::vector<Token>> token_streams;
  std::map<std::string, std::set<std::string>> unordered_by_file;
  for (const SourceFile& f : files) {
    token_streams[f.path] = Tokenize(f.content);
    unordered_by_file[f.path] =
        CollectUnorderedNames(token_streams[f.path]);
    IndexedFile indexed{f.path, ScanDirectives(f.content), {}};
    std::istringstream in(f.content);
    std::string line;
    while (std::getline(in, line)) indexed.lines.push_back(line);
    index.files[f.path] = std::move(indexed);
  }
  for (const SourceFile& f : files) {
    if (f.path.size() > 3 && f.path.rfind(".cc") == f.path.size() - 3) {
      const std::string header = f.path.substr(0, f.path.size() - 3) + ".h";
      auto it = unordered_by_file.find(header);
      if (it != unordered_by_file.end()) {
        unordered_by_file[f.path].insert(it->second.begin(),
                                         it->second.end());
      }
    }
  }

  for (const SourceFile& f : files) {
    FileIndexer indexer(f.path, token_streams[f.path],
                        unordered_by_file[f.path], &index.functions);
    indexer.Walk();
  }

  for (size_t i = 0; i < index.functions.size(); ++i) {
    index.by_simple[index.functions[i].simple].push_back(i);
  }
  return index;
}

}  // namespace ecodb::lint
