// Pass 1 of the cross-TU analyzer: a project-wide symbol index and
// heuristic call graph over the same no-libclang token stream the per-file
// scanner uses.
//
// The index walks every file once, finds function definitions (free
// functions, out-of-line members `Class::Fn`, inline members inside record
// bodies — templates are indexed after their header is skipped, lambdas are
// folded into their enclosing function), and records per function:
//
//   * call sites — simple callee name, the qualifier that preceded it
//     (`util::Helper` → "util", `Catalog::Get` → "Catalog"), whether it was
//     a member call (`obj->F`), the argument count, whether the call's
//     result is discarded (a statement-level call whose value is unused),
//     and the set of lock ids held at the call;
//   * entropy / wall-clock tokens (the EC5/EC8 banned set);
//   * range-for loops over unordered containers;
//   * lock acquisitions (lock_guard / unique_lock / shared_lock /
//     scoped_lock and direct mutex .lock()/.unlock()), plus the intra-
//     function acquisition-order pairs they induce.
//
// Resolution (interproc.cc) maps a call site to candidate definitions by
// simple name, narrowed by qualifier and arity when they help; a call that
// matches nothing is an **unknown callee** and the analysis conservatively
// treats it as opaque (no edges). A call that matches several candidates
// links to all of them — over-approximating reachability is the safe
// direction for EC8/EC9.

#ifndef ECODB_TOOLS_LINT_INDEX_H_
#define ECODB_TOOLS_LINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.h"

namespace ecodb::lint {

struct CallSite {
  std::string name;       // simple callee name
  std::string qualifier;  // ident before `::`, or "" (member calls: "")
  bool via_member = false;  // obj.name(...) / obj->name(...)
  int line = 0;
  int arg_count = 0;
  std::vector<std::string> locks_held;  // lock ids held at this call
};

struct TokenUse {
  std::string name;  // banned entropy token, or the unordered range name
  int line = 0;
};

struct LockAcquire {
  std::string lock_id;  // "Class::mu_" for members, bare name otherwise
  int line = 0;
};

struct LockEdge {
  std::string held;      // lock already held...
  std::string acquired;  // ...when this one was acquired
  int line = 0;
};

struct FunctionInfo {
  std::string qualified;   // "ns::Class::Fn" (namespaces + record + name)
  std::string simple;      // "Fn"
  std::string class_name;  // enclosing record, "" for free functions
  std::string file;        // path label the file was indexed under
  int line = 0;            // definition line
  int min_arity = 0;       // params without defaults
  int max_arity = 0;       // all params (INT_MAX when variadic)

  std::vector<CallSite> calls;
  std::vector<TokenUse> entropy;          // banned nondeterminism tokens
  std::vector<TokenUse> unordered_iters;  // range-for over unordered
  std::vector<LockAcquire> acquires;      // direct lock acquisitions
  std::vector<LockEdge> lock_edges;       // intra-function order pairs
};

struct IndexedFile {
  std::string path;
  LineDirectives directives;       // NOLINT suppressions for interproc findings
  std::vector<std::string> lines;  // raw source lines (finding snippets)
};

struct ProjectIndex {
  std::vector<FunctionInfo> functions;
  std::map<std::string, IndexedFile> files;  // by path label
  // simple name -> indexes into `functions`
  std::map<std::string, std::vector<size_t>> by_simple;
};

/// One input file for the project pass.
struct SourceFile {
  std::string path;     // label (repo-relative; scopes the path rules)
  std::string content;
};

/// Builds the index over the whole file set. Unordered-container names for
/// a .cc are harvested from the file itself plus its sibling .h when that
/// header is part of `files`.
ProjectIndex BuildProjectIndex(const std::vector<SourceFile>& files);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_INDEX_H_
