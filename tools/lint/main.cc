// ecodb-lint CLI: lints .h/.cc files (or directory trees) against the
// energy-accounting contract rules EC1–EC11. See lint.h for the per-file
// rules (EC1–EC7) and interproc.h for the cross-TU rules (EC8–EC11) and
// annotation syntax.
//
//   ecodb-lint [--root DIR] [--format text|json] [--baseline FILE]
//              [--write-baseline FILE] [--fail-stale] [--timings] PATH...
//
// Paths are resolved against --root (default: cwd) and reported relative to
// it, so baselines and NOLINT fingerprints are machine-independent.
// --timings prints per-rule wall time to stderr (the cross-TU passes are
// the ones to watch as src/ grows). --fail-stale makes baseline entries
// that no longer match any finding an error, so fixed violations cannot
// linger grandfathered. Exit status: 0 clean, 1 findings (or stale
// baseline), 2 usage or I/O error.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "interproc.h"
#include "lint.h"

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

int Usage() {
  std::cerr << "usage: ecodb-lint [--root DIR] [--format text|json]\n"
               "                  [--baseline FILE] [--write-baseline FILE]\n"
               "                  [--fail-stale] [--timings] PATH...\n";
  return 2;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string format = "text";
  std::string baseline_path;
  std::string write_baseline_path;
  bool fail_stale = false;
  bool timings = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!next(&root)) return Usage();
    } else if (arg == "--format") {
      if (!next(&format) || (format != "text" && format != "json")) {
        return Usage();
      }
    } else if (arg == "--baseline") {
      if (!next(&baseline_path)) return Usage();
    } else if (arg == "--write-baseline") {
      if (!next(&write_baseline_path)) return Usage();
    } else if (arg == "--fail-stale") {
      fail_stale = true;
    } else if (arg == "--timings") {
      timings = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ecodb-lint: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return Usage();

  const fs::path root_path(root);

  // Expand inputs into a sorted file list: deterministic output order, the
  // same discipline the linter demands of the engine.
  std::vector<fs::path> files;
  for (const std::string& input : inputs) {
    const fs::path p = root_path / input;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "ecodb-lint: no such file or directory: " << p << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Read everything once: the per-file scanner and the cross-TU analyzer
  // must see identical bytes.
  std::vector<ecodb::lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      std::cerr << "ecodb-lint: cannot read " << file << "\n";
      return 2;
    }
    const std::string label =
        fs::relative(file, root_path).lexically_normal().generic_string();
    sources.push_back({label, std::move(content)});
  }

  // Pass A: per-file rules EC1–EC7.
  const auto scan_start = std::chrono::steady_clock::now();
  std::vector<ecodb::lint::Finding> findings;
  for (size_t i = 0; i < sources.size(); ++i) {
    // EC5 tracks unordered-container members declared in the sibling
    // header, so iteration in the .cc is checked against them.
    std::set<std::string> header_names;
    if (files[i].extension() == ".cc") {
      fs::path sibling = files[i];
      sibling.replace_extension(".h");
      std::string header;
      if (ReadFile(sibling, &header)) {
        header_names = ecodb::lint::HarvestUnorderedNames(header);
      }
    }
    const auto file_findings = ecodb::lint::LintSource(
        sources[i].path, sources[i].content, header_names);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  const double scan_seconds = SecondsSince(scan_start);

  // Pass B: cross-TU rules EC8, EC9 and EC11 over the whole file set.
  ecodb::lint::ProjectTimings project_timings;
  const auto project_findings =
      ecodb::lint::LintProject(sources, &project_timings);
  findings.insert(findings.end(), project_findings.begin(),
                  project_findings.end());

  if (timings) {
    std::ostringstream t;
    t.setf(std::ios::fixed);
    t.precision(1);
    t << "ecodb-lint timings over " << sources.size() << " file(s):\n"
      << "  EC1-EC7 per-file scan   " << scan_seconds * 1e3 << " ms\n"
      << "  symbol index + graph    " << project_timings.index_seconds * 1e3
      << " ms\n"
      << "  EC8 transitive determ.  " << project_timings.ec8_seconds * 1e3
      << " ms\n"
      << "  EC9 lock discipline     " << project_timings.ec9_seconds * 1e3
      << " ms\n"
      << "  EC11 cancellation poll  " << project_timings.ec11_seconds * 1e3
      << " ms\n";
    std::cerr << t.str();
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(root_path / write_baseline_path);
    if (!out) {
      std::cerr << "ecodb-lint: cannot write baseline\n";
      return 2;
    }
    out << ecodb::lint::RenderBaseline(findings);
    std::cout << "ecodb-lint: wrote " << findings.size()
              << " fingerprint(s) to " << write_baseline_path << "\n";
    return 0;
  }

  bool stale_baseline = false;
  if (!baseline_path.empty()) {
    std::string content;
    if (!ReadFile(root_path / baseline_path, &content)) {
      std::cerr << "ecodb-lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    const std::set<std::string> baseline =
        ecodb::lint::ParseBaseline(content);
    if (fail_stale) {
      std::set<std::string> live;
      for (const auto& f : findings) live.insert(ecodb::lint::Fingerprint(f));
      for (const std::string& entry : baseline) {
        if (live.count(entry) == 0) {
          std::cerr << "ecodb-lint: stale baseline entry (no finding "
                       "matches it — delete the line): "
                    << entry << "\n";
          stale_baseline = true;
        }
      }
    }
    findings = ecodb::lint::ApplyBaseline(findings, baseline);
  }

  std::cout << (format == "json" ? ecodb::lint::RenderJson(findings)
                                 : ecodb::lint::RenderText(findings));
  return (findings.empty() && !stale_baseline) ? 0 : 1;
}
