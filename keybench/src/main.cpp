// keybench — the key server benchmark.
//
//   keybench --workload <churn-65k|fleet-udp-1k|signed-wal-k4> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints a header line (host, build, workload configuration) and, as the
// last line of standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end table below; with
// --trace 1 they are the per-layer table, and the spans are written to
// <work-dir>/spans-<workload>-<seed>.jsonl. A failed correctness check
// exits 1 and reports no metric values.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "crypto/cpu_features.h"
#include "harness.h"
#include "telemetry/metrics.h"

namespace keybench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rekey_p50_us", "us"},
    {"rekey_p90_us", "us"},
    {"rekeys_per_s", "1/s"},
    {"converge_p50_us", "us"},
    {"converge_p90_us", "us"},
    {"welcome_p90_us", "us"},
    {"resync_p90_us", "us"},
    {"wire_bytes_per_op", "B"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"keygraph.join_us", "us"},
    {"keygraph.leave_us", "us"},
    {"keygraph.shape_ratio", "ratio"},
    {"keygraph.build_s", "s"},
    {"keygraph.resolve_us", "us"},
    {"keygraph.resolved_users_per_op", "count"},
    {"rekey.plan_us", "us"},
    {"rekey.seal_us", "us"},
    {"rekey.wraps_per_op", "count"},
    {"rekey.messages_per_op", "count"},
    {"rekey.cache_hit_ratio", "ratio"},
    {"merkle.sign_us", "us"},
    {"crypto.signatures_per_op", "count"},
    {"storage.append_us", "us"},
    {"storage.sync_us_p50", "us"},
    {"storage.sync_us_p99", "us"},
    {"storage.bytes_per_op", "B"},
    {"transport.deliver_us", "us"},
    {"transport.datagrams_per_op", "count"},
    {"transport.bytes_per_op", "B"},
    {"transport.send_errors", "count"},
    {"client.apply_us_p50", "us"},
    {"client.apply_us_p99", "us"},
    {"client.keys_decrypted_per_op", "count"},
    {"client.recv_lag_us_p99", "us"},
    {"server.self_us", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.lane_overlap", "ratio"},
    {"server.unattributed_us", "us"},
    {"harness.tracing_overhead", "ratio"},
    {"harness.gen_late_us_p99", "us"},
    {"harness.backlog_end", "count"},
    {"harness.op_fail_ratio", "ratio"},
    {"harness.spans", "count"},
};

bool env_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: keybench --workload <churn-65k|fleet-udp-1k|"
               "signed-wal-k4> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
  return 2;
}

/// Open-file limit up to the hard cap: the fleet workload holds one UDP
/// socket per client.
void raise_fd_limit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0) {
    return usage();
  }

  // Numbers from a debug build or a forced-portable kernel must never be
  // compared with real ones: refuse instead of reporting them.
  if (std::string(KEYBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "keybench: refusing to run a %s build (need Release)\n",
                 KEYBENCH_BUILD_TYPE);
    return 3;
  }
  for (const char* knob : {"KG_DISABLE_AESNI", "KG_DISABLE_SENDMMSG"}) {
    if (env_set(knob)) {
      std::fprintf(stderr, "keybench: refusing to run with %s set\n", knob);
      return 3;
    }
  }
  std::filesystem::create_directories(options.work_dir);
  raise_fd_limit();
  keygraphs::telemetry::set_enabled(false);

  Report report;
  if (options.workload == "churn-65k") {
    report = run_churn(options);
  } else if (options.workload == "fleet-udp-1k") {
    report = run_fleet(options);
  } else if (options.workload == "signed-wal-k4") {
    report = run_signed_wal(options);
  } else {
    std::fprintf(stderr, "keybench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  std::string header = "{\"keybench_header\":{\"workload\":" +
                       json_string(options.workload) +
                       ",\"seed\":" + std::to_string(options.seed) +
                       ",\"seconds\":" + json_number(options.seconds) +
                       ",\"trace\":" + (options.trace ? "true" : "false") +
                       ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ",\"hardware_concurrency\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"cpu_features\":" +
                       keygraphs::crypto::cpu_features_json() +
                       ",\"build_type\":" + json_string(KEYBENCH_BUILD_TYPE) +
                       ",\"compiler\":" + json_string(KEYBENCH_COMPILER);
  for (const auto& [key, value] : report.header) {
    header += "," + json_string(key) + ":" + value;
  }
  header += "}}";
  std::printf("%s\n", header.c_str());

  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    Tracer::global().write_jsonl(path);
  }

  std::string metrics;
  const auto add = [&](const MetricSpec& spec) {
    double value = 0.0;
    const auto it = report.values.find(spec.name);
    if (it != report.values.end()) {
      value = it->second;
    } else if (!options.trace) {
      report.check(false, std::string("metric not measured: ") + spec.name);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) add(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) add(spec);
  }

  const bool correct = report.failures.empty();
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "keybench: check failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              correct ? metrics.c_str() : "");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace keybench

int main(int argc, char** argv) {
  try {
    return keybench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "keybench: %s\n", error.what());
    return 1;
  }
}
