// ecodb-lint CLI: lints .h/.cc files (or directory trees) against the
// energy-accounting contract rules, one file at a time. See lint.h for the
// rules and the annotation syntax.
//
//   ecodb-lint [--root DIR] PATH...
//
// Paths are resolved against --root (default: cwd) and reported relative to
// it, so findings and the path-scoped rules are machine-independent. A
// finding is fixed or suppressed in place with a justified NOLINT-ECODB.
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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
  std::cerr << "usage: ecodb-lint [--root DIR] PATH...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage();
      root = argv[++i];
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

  std::vector<ecodb::lint::Finding> findings;
  for (const fs::path& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      std::cerr << "ecodb-lint: cannot read " << file << "\n";
      return 2;
    }
    // EC5 tracks unordered-container members declared in the sibling
    // header, so iteration in the .cc is checked against them.
    std::set<std::string> header_names;
    if (file.extension() == ".cc") {
      fs::path sibling = file;
      sibling.replace_extension(".h");
      std::string header;
      if (ReadFile(sibling, &header)) {
        header_names = ecodb::lint::HarvestUnorderedNames(header);
      }
    }
    const std::string label =
        fs::relative(file, root_path).lexically_normal().generic_string();
    const auto file_findings =
        ecodb::lint::LintSource(label, content, header_names);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  std::cout << ecodb::lint::RenderText(findings);
  return findings.empty() ? 0 : 1;
}
