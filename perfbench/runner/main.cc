// perfbench_runner: runs one benchmark workload and writes its raw result
// as JSON. perfbench/run.py builds this binary, chooses the amount of
// work, and turns the raw samples into the reported metrics.
//
//   perfbench_runner --workload plan-nyc|replan-sg|serve-mmap --seed N
//                    --units N --out result.json [--trace-out trace.json]
//                    [--snapshot city.snap --rate R]   (serve-mmap)
//   perfbench_runner --prepare-snapshot city.snap
//
// --scale F shrinks the cities and --unit-delay-ms N slows every unit;
// both exist for the harness self-tests only.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  return static_cast<bool>(file);
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench_runner: " << problem << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The solvers log one Info line per solve; keep stderr for problems.
  mroam::common::SetMinLogLevel(mroam::common::LogLevel::kWarning);

  perfbench::Options options;
  std::string out_path;
  std::string trace_path;
  std::string prepare_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--units") {
      options.units = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--unit-delay-ms") {
      options.unit_delay_ms =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--snapshot") {
      options.snapshot = value;
    } else if (flag == "--rate") {
      options.rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else if (flag == "--prepare-snapshot") {
      prepare_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.scale <= 0.0 || options.scale > 1.0) {
    return Usage("--scale must be in (0, 1]");
  }

  perfbench::Spans spans(!trace_path.empty());
  if (!prepare_path.empty()) {
    options.snapshot = prepare_path;
    if (!perfbench::PrepareSnapshot(options, &spans)) return 1;
    if (!trace_path.empty() &&
        !WriteFile(trace_path, spans.ChromeTraceJson())) {
      return Usage("cannot write " + trace_path);
    }
    return 0;
  }
  if (options.units < 1) return Usage("--units must be at least 1");
  if (out_path.empty()) return Usage("--out is required");

  perfbench::RunOutput out;
  out.workload = options.workload;
  if (options.workload == "plan-nyc") {
    perfbench::RunPlanNyc(options, &spans, &out);
  } else if (options.workload == "replan-sg") {
    perfbench::RunReplanSg(options, &spans, &out);
  } else if (options.workload == "serve-mmap") {
    if (options.snapshot.empty() || options.rate <= 0.0) {
      return Usage("serve-mmap needs --snapshot and a positive --rate");
    }
    perfbench::RunServeMmap(options, &spans, &out);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }

  if (!trace_path.empty() && !WriteFile(trace_path, spans.ChromeTraceJson())) {
    return Usage("cannot write " + trace_path);
  }
  if (!WriteFile(out_path, out.ToJson())) {
    return Usage("cannot write " + out_path);
  }
  return 0;
}
