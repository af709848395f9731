#include "interproc.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <deque>
#include <sstream>

namespace ecodb::lint {

namespace {

bool InExecOrSched(const std::string& file) {
  return file.find("src/exec") != std::string::npos ||
         file.find("src/sched") != std::string::npos;
}

bool InExec(const std::string& file) {
  return file.find("src/exec") != std::string::npos;
}

bool InLockScope(const std::string& file) {
  return file.find("src/sched") != std::string::npos ||
         file.find("src/catalog") != std::string::npos;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// True when `qualifier` names a scope segment of `qualified` (any segment
/// but the trailing simple name): "storage" matches
/// "ecodb::storage::BufferPool::Access", "BufferPool" matches too.
bool QualifierMatches(const std::string& qualified,
                      const std::string& qualifier) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (true) {
    const size_t next = qualified.find("::", pos);
    if (next == std::string::npos) {
      parts.push_back(qualified.substr(pos));
      break;
    }
    parts.push_back(qualified.substr(pos, next - pos));
    pos = next + 2;
  }
  for (size_t k = 0; k + 1 < parts.size(); ++k) {
    if (parts[k] == qualifier) return true;
  }
  return false;
}

class ProjectAnalysis {
 public:
  explicit ProjectAnalysis(const ProjectIndex& index) : idx_(index) {
    ResolveAllCalls();
    ComputeTransitiveFacts();
  }

  std::vector<Finding> RunEc8();
  std::vector<Finding> RunEc9();
  std::vector<Finding> RunEc11();

 private:
  /// Candidate definitions for a call site: by simple name, narrowed by
  /// qualifier, C++ lookup shape, and arity when that still leaves
  /// candidates. Empty result = unknown callee (treated as opaque).
  std::vector<size_t> Resolve(const FunctionInfo& caller,
                              const CallSite& c) const {
    auto it = idx_.by_simple.find(c.name);
    if (it == idx_.by_simple.end()) return {};
    std::vector<size_t> candidates = it->second;
    if (!c.qualifier.empty()) {
      std::vector<size_t> filtered;
      for (size_t f : candidates) {
        if (QualifierMatches(idx_.functions[f].qualified, c.qualifier)) {
          filtered.push_back(f);
        }
      }
      if (!filtered.empty()) candidates = filtered;
    }
    if (c.via_member) {
      // obj.f() / obj->f() can only land on a member function. Without the
      // receiver's type, a name defined by several classes (size, Get,
      // Open, ...) is genuinely ambiguous — linking them all would wire
      // e.g. Schema::num_columns's `columns_.size()` to Catalog::size and
      // its lock. Fall back to unknown callee instead.
      std::vector<size_t> members;
      std::set<std::string> classes;
      for (size_t f : candidates) {
        if (idx_.functions[f].class_name.empty()) continue;
        members.push_back(f);
        classes.insert(idx_.functions[f].class_name);
      }
      if (classes.size() != 1) return {};
      candidates = members;
    } else if (c.qualifier.empty()) {
      // An unqualified non-member call sees free functions and the
      // caller's own class (this->f()); other classes' members are out of
      // scope for it.
      std::vector<size_t> filtered;
      for (size_t f : candidates) {
        const std::string& cls = idx_.functions[f].class_name;
        if (cls.empty() || cls == caller.class_name) filtered.push_back(f);
      }
      candidates = filtered;
    }
    {
      std::vector<size_t> filtered;
      for (size_t f : candidates) {
        const FunctionInfo& fn = idx_.functions[f];
        if (c.arg_count >= fn.min_arity &&
            (fn.max_arity == INT_MAX || c.arg_count <= fn.max_arity)) {
          filtered.push_back(f);
        }
      }
      // Arity narrowing only when it keeps at least one candidate — an
      // empty cut more likely means the token-level count was off than
      // that the call targets none of them (over-approximate for EC8/EC9).
      if (!filtered.empty()) candidates = filtered;
    }
    return candidates;
  }

  void ResolveAllCalls() {
    resolved_.resize(idx_.functions.size());
    for (size_t f = 0; f < idx_.functions.size(); ++f) {
      const FunctionInfo& fn = idx_.functions[f];
      resolved_[f].reserve(fn.calls.size());
      for (const CallSite& c : fn.calls) {
        resolved_[f].push_back(Resolve(fn, c));
      }
    }
  }

  /// Fixpoint over the call graph: the lock set a function may acquire,
  /// whether it may settle (call a Charge*/Settle*/Finish entry
  /// point), and whether it polls cancellation — including through callees.
  void ComputeTransitiveFacts() {
    const size_t n = idx_.functions.size();
    trans_acquires_.resize(n);
    trans_settles_.assign(n, false);
    trans_polls_.assign(n, false);
    for (size_t f = 0; f < n; ++f) {
      for (const LockAcquire& a : idx_.functions[f].acquires) {
        trans_acquires_[f].insert(a.lock_id);
      }
      for (const CallSite& c : idx_.functions[f].calls) {
        if (IsSettlementName(c.name)) trans_settles_[f] = true;
        if (c.name == "PollCancel") trans_polls_[f] = true;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t f = 0; f < n; ++f) {
        for (const std::vector<size_t>& callees : resolved_[f]) {
          for (size_t g : callees) {
            if (!trans_settles_[f] && trans_settles_[g]) {
              trans_settles_[f] = true;
              changed = true;
            }
            if (!trans_polls_[f] && trans_polls_[g]) {
              trans_polls_[f] = true;
              changed = true;
            }
            for (const std::string& l : trans_acquires_[g]) {
              if (trans_acquires_[f].insert(l).second) changed = true;
            }
          }
        }
      }
    }
  }

  std::string LineText(const std::string& file, int line) const {
    auto it = idx_.files.find(file);
    if (it == idx_.files.end()) return "";
    const std::vector<std::string>& lines = it->second.lines;
    if (line < 1 || line > static_cast<int>(lines.size())) return "";
    return Trim(lines[static_cast<size_t>(line - 1)]);
  }

  void Report(std::vector<Finding>* out, const std::string& rule,
              const std::string& file, int line, const std::string& message) {
    auto it = idx_.files.find(file);
    if (it != idx_.files.end() &&
        it->second.directives.Suppressed(rule, line)) {
      return;
    }
    const std::string key = rule + "|" + file + "|" + std::to_string(line);
    if (!seen_.insert(key).second) return;
    out->push_back({rule, file, line, message, LineText(file, line)});
  }

  const ProjectIndex& idx_;
  // resolved_[f][k] = candidate function indexes of idx_.functions[f].calls[k]
  std::vector<std::vector<std::vector<size_t>>> resolved_;
  std::vector<std::set<std::string>> trans_acquires_;
  std::vector<bool> trans_settles_;
  std::vector<bool> trans_polls_;
  std::set<std::string> seen_;
};

// --- EC8: transitive determinism --------------------------------------------

std::vector<Finding> ProjectAnalysis::RunEc8() {
  std::vector<Finding> out;
  const size_t n = idx_.functions.size();

  for (size_t e = 0; e < n; ++e) {
    const FunctionInfo& entry = idx_.functions[e];
    if (!InExecOrSched(entry.file)) continue;

    // BFS from the entry point; remember, for every reached function, the
    // call site in `entry` that starts the chain and the immediate parent
    // (for the chain rendering).
    struct Visit {
      size_t first_call_idx = 0;  // index into entry.calls
      size_t parent = SIZE_MAX;
    };
    std::map<size_t, Visit> visited;
    std::deque<size_t> queue;

    // Seed: the entry's own violations (EC5 owns textual src/exec, so only
    // src/sched entries report their own body here).
    if (!InExec(entry.file)) {
      for (const TokenUse& u : entry.entropy) {
        Report(&out, "EC8", entry.file, u.line,
               "'" + u.name +
                   "' on an operator-reachable path: accounting and row "
                   "order must be pure functions of the input and the plan "
                   "(EC8; serving-path body of " + entry.qualified + ")");
      }
      for (const TokenUse& u : entry.unordered_iters) {
        Report(&out, "EC8", entry.file, u.line,
               "range-for over unordered container '" + u.name +
                   "' on an operator-reachable path: iteration order must "
                   "not feed emitted rows or charge order (EC8)");
      }
    }

    for (size_t k = 0; k < entry.calls.size(); ++k) {
      for (size_t g : resolved_[e][k]) {
        if (g == e) continue;
        if (visited.emplace(g, Visit{k, e}).second) queue.push_back(g);
      }
    }
    while (!queue.empty()) {
      const size_t f = queue.front();
      queue.pop_front();
      const Visit& v = visited.at(f);
      const FunctionInfo& fn = idx_.functions[f];

      // Violations inside src/exec bodies are EC5's (textual) business.
      if (!InExec(fn.file) &&
          (!fn.entropy.empty() || !fn.unordered_iters.empty())) {
        const CallSite& site = entry.calls[v.first_call_idx];
        // Render the chain entry -> ... -> fn by walking parents.
        std::vector<std::string> chain;
        size_t cur = f;
        while (cur != SIZE_MAX && cur != e) {
          chain.push_back(idx_.functions[cur].qualified);
          auto pit = visited.find(cur);
          cur = pit == visited.end() ? SIZE_MAX : pit->second.parent;
        }
        chain.push_back(entry.qualified);
        std::reverse(chain.begin(), chain.end());
        std::string rendered;
        for (size_t k = 0; k < chain.size(); ++k) {
          rendered += (k ? " -> " : "") + chain[k];
        }
        const TokenUse& u = fn.entropy.empty() ? fn.unordered_iters.front()
                                               : fn.entropy.front();
        const std::string what =
            fn.entropy.empty()
                ? "range-for over unordered '" + u.name + "'"
                : "'" + u.name + "'";
        Report(&out, "EC8", entry.file, site.line,
               "call chain " + rendered + " reaches " + what + " (" +
                   fn.file + ":" + std::to_string(u.line) +
                   "): operator-reachable code must be deterministic — fix "
                   "the callee or justify with NOLINT-ECODB(EC8)");
      }

      for (size_t k = 0; k < fn.calls.size(); ++k) {
        for (size_t g : resolved_[f][k]) {
          if (g == e) continue;
          if (visited.emplace(g, Visit{v.first_call_idx, f}).second) {
            queue.push_back(g);
          }
        }
      }
    }
  }
  return out;
}

// --- EC9: lock discipline ----------------------------------------------------

std::vector<Finding> ProjectAnalysis::RunEc9() {
  std::vector<Finding> out;
  const size_t n = idx_.functions.size();

  struct EdgeSite {
    std::string file;
    int line = 0;
    std::string via;  // "" for a direct acquisition, callee name otherwise
  };
  // (held, acquired) -> first observed site, in deterministic index order.
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;

  for (size_t f = 0; f < n; ++f) {
    const FunctionInfo& fn = idx_.functions[f];
    if (!InLockScope(fn.file)) continue;

    for (const LockEdge& e : fn.lock_edges) {
      edges.emplace(std::make_pair(e.held, e.acquired),
                    EdgeSite{fn.file, e.line, ""});
    }
    for (size_t k = 0; k < fn.calls.size(); ++k) {
      const CallSite& c = fn.calls[k];
      if (c.locks_held.empty()) continue;

      // Settlement while holding a lock: direct...
      if (IsSettlementName(c.name)) {
        Report(&out, "EC9", fn.file, c.line,
               "settlement call '" + c.name + "' while holding lock '" +
                   c.locks_held.back() +
                   "': coordinator settlement order must not depend on who "
                   "holds a mutex (release the lock first)");
      } else {
        // ...or through a callee that transitively settles.
        for (size_t g : resolved_[f][k]) {
          if (trans_settles_[g]) {
            Report(&out, "EC9", fn.file, c.line,
                   "'" + c.name + "' (resolving to " +
                       idx_.functions[g].qualified +
                       ") settles charges while '" + c.locks_held.back() +
                       "' is held: settlement must run lock-free");
            break;
          }
        }
      }

      // Locks a callee may acquire while we hold ours: cross-TU order edges.
      for (size_t g : resolved_[f][k]) {
        for (const std::string& acquired : trans_acquires_[g]) {
          for (const std::string& held : c.locks_held) {
            edges.emplace(std::make_pair(held, acquired),
                          EdgeSite{fn.file, c.line, c.name});
          }
        }
      }
    }
  }

  // Self-deadlock and inversions over the observed lock graph.
  for (const auto& [pair, site] : edges) {
    const auto& [held, acquired] = pair;
    if (held == acquired) {
      Report(&out, "EC9", site.file, site.line,
             "lock '" + held + "' acquired while already held" +
                 (site.via.empty() ? "" : " (via '" + site.via + "')") +
                 ": non-recursive mutexes self-deadlock (EC9)");
      continue;
    }
    const auto inverse = edges.find(std::make_pair(acquired, held));
    if (inverse != edges.end()) {
      Report(&out, "EC9", site.file, site.line,
             "inconsistent lock order: '" + held + "' then '" + acquired +
                 "' here, but '" + acquired + "' then '" + held + "' at " +
                 inverse->second.file + ":" +
                 std::to_string(inverse->second.line) +
                 " — pick one global order (EC9)");
    }
  }
  return out;
}

// --- EC11: cancellation polling ---------------------------------------------

std::vector<Finding> ProjectAnalysis::RunEc11() {
  std::vector<Finding> out;
  for (size_t f = 0; f < idx_.functions.size(); ++f) {
    const FunctionInfo& fn = idx_.functions[f];
    if (!InExec(fn.file)) continue;
    // WorkerPool itself is the dispatch machinery the polling protects;
    // its members are not morsel loops.
    if (fn.class_name == "WorkerPool") continue;

    // An operator pull loop: a member Next(out, eos) definition. Member
    // calls through a child pointer resolve opaquely (every operator
    // defines Next), so polling cannot be inherited from the child — each
    // Next must reach PollCancel through its own body or its helpers.
    const bool pull_loop =
        fn.simple == "Next" && !fn.class_name.empty() && fn.max_arity >= 2;
    // A morsel dispatch: a body handing a task batch to WorkerPool::Run.
    bool dispatches = false;
    for (const CallSite& c : fn.calls) {
      if (c.via_member && c.name == "Run") {
        dispatches = true;
        break;
      }
    }
    if (!pull_loop && !dispatches) continue;
    if (trans_polls_[f]) continue;

    const std::string what =
        pull_loop ? "operator pull loop" : "morsel dispatch";
    Report(&out, "EC11", fn.file, fn.line,
           what + " " + fn.qualified +
               " never reaches ExecContext::PollCancel(): poll at the "
               "batch/morsel boundary — directly or through a helper — so "
               "a deadline or shed stops the plan instead of running it to "
               "completion (EC11)");
  }
  return out;
}

}  // namespace

std::vector<Finding> LintProject(const std::vector<SourceFile>& files,
                                 ProjectTimings* timings) {
  auto t0 = std::chrono::steady_clock::now();
  const ProjectIndex index = BuildProjectIndex(files);
  ProjectAnalysis analysis(index);
  if (timings != nullptr) timings->index_seconds = SecondsSince(t0);

  std::vector<Finding> findings;
  auto t8 = std::chrono::steady_clock::now();
  std::vector<Finding> ec8 = analysis.RunEc8();
  if (timings != nullptr) timings->ec8_seconds = SecondsSince(t8);
  auto t9 = std::chrono::steady_clock::now();
  std::vector<Finding> ec9 = analysis.RunEc9();
  if (timings != nullptr) timings->ec9_seconds = SecondsSince(t9);
  auto t11 = std::chrono::steady_clock::now();
  std::vector<Finding> ec11 = analysis.RunEc11();
  if (timings != nullptr) timings->ec11_seconds = SecondsSince(t11);

  findings.insert(findings.end(), ec8.begin(), ec8.end());
  findings.insert(findings.end(), ec9.begin(), ec9.end());
  findings.insert(findings.end(), ec11.begin(), ec11.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace ecodb::lint
