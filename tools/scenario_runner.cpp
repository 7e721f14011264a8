// scenario_runner — replays declarative stress scenarios (scenarios/
// *.scn) against the registered strategy families and emits the
// machine-checked invariant verdict as schema-versioned JSON
// (src/scenario/report.hpp).
//
// Usage:
//   scenario_runner [options] <file-or-dir>...
//
//   <file-or-dir>        a .scn file, or a directory scanned for *.scn
//                        (sorted by name)
//   --out PATH           write the JSON report to PATH (default stdout)
//   --override K=V       apply a scenario setting to every scenario,
//                        after its file parses (repeatable; same keys as
//                        the file grammar — tighten thresholds, swap the
//                        strategy list, shrink scale)
//   --scale-mult X       multiply every scenario's generator scale
//                        (drift invariants are skipped when X != 1)
//   --update-golden      rewrite drift goldens from this run instead of
//                        checking them
//   --list               parse and summarize the scenarios, run nothing
//
// Exit codes: 0 all invariants pass, 1 at least one violation, 2 usage
// or configuration error (unparsable scenario, unknown strategy,
// missing golden, unwritable --out).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "util/check.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ethshard;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--override K=V]... [--scale-mult X]\n"
               "          [--update-golden] [--list]\n"
               "          <scenario-file-or-dir>...\n",
               argv0);
  return 2;
}

std::vector<std::string> collect_scenario_files(
    const std::vector<std::string>& inputs) {
  std::vector<std::string> files;
  for (const auto& input : inputs) {
    ETHSHARD_INPUT_CHECK(fs::exists(input),
                         "no such file or directory: " << input);
    if (fs::is_directory(input)) {
      std::vector<std::string> dir_files;
      for (const auto& entry : fs::directory_iterator(input))
        if (entry.is_regular_file() && entry.path().extension() == ".scn")
          dir_files.push_back(entry.path().string());
      std::sort(dir_files.begin(), dir_files.end());
      ETHSHARD_INPUT_CHECK(!dir_files.empty(),
                           "directory has no .scn files: " << input);
      files.insert(files.end(), dir_files.begin(), dir_files.end());
    } else {
      files.push_back(input);
    }
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  scenario::RunnerOptions options;
  bool list_only = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next_value("--out");
    } else if (arg == "--override") {
      const std::string kv = next_value("--override");
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "--override wants K=V, got '%s'\n", kv.c_str());
        return 2;
      }
      options.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--scale-mult") {
      const std::string value = next_value("--scale-mult");
      char* end = nullptr;
      options.scale_mult = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.scale_mult > 0)) {
        std::fprintf(stderr,
                     "--scale-mult must be a positive number, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--update-golden") {
      options.update_golden = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  try {
    std::vector<scenario::Scenario> scenarios;
    for (const auto& file : collect_scenario_files(inputs))
      scenarios.push_back(scenario::load_scenario_file(file));

    if (list_only) {
      for (const auto& s : scenarios) {
        std::printf("%-24s preset=%s scale=%g shards=%u strategies=%zu%s\n",
                    s.name.c_str(),
                    workload::preset_name(s.preset).c_str(), s.scale,
                    s.shards, s.strategies.size(),
                    s.description.empty()
                        ? ""
                        : ("  # " + s.description).c_str());
      }
      return 0;
    }

    // Open --out before any scenario runs, so a bad path fails at once.
    std::ofstream out_file;
    if (!out_path.empty()) {
      out_file.open(out_path);
      ETHSHARD_INPUT_CHECK(out_file.good(),
                           "cannot open --out file " << out_path);
    }

    const scenario::Report report =
        scenario::run_matrix(scenarios, options);

    if (out_path.empty())
      scenario::write_report_json(report, std::cout);
    else
      scenario::write_report_json(report, out_file);

    // One human-readable line per run on stderr so CI logs show where a
    // red verdict came from without opening the artifact.
    for (const auto& s : report.scenarios)
      for (const auto& r : s.runs) {
        std::fprintf(stderr, "[%s] %s %s (%llu windows, %.0f ms)\n",
                     r.pass() ? "PASS" : "FAIL", s.name.c_str(),
                     r.strategy.c_str(),
                     static_cast<unsigned long long>(r.windows), r.wall_ms);
        for (const auto& v : r.invariants)
          if (!v.pass)
            std::fprintf(stderr, "       %s: %s\n", v.kind.c_str(),
                         v.detail.c_str());
      }
    return report.pass() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 2;
  }
}
