#include "server/spec.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace keygraphs::server {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ProtocolError("spec line " + std::to_string(line) + ": " + what);
}

std::uint64_t parse_number(std::string_view value, int line) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    fail(line, "expected a number, got '" + std::string(value) + "'");
  }
  return out;
}

}  // namespace

ServerSpec parse_server_spec(std::string_view text) {
  ServerSpec spec;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_number, "expected 'key = value'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));

    if (key == "degree") {
      if (value == "star") {
        spec.config = ServerConfig::star(spec.config);
      } else {
        const std::uint64_t degree = parse_number(value, line_number);
        if (degree < 2 || degree > 1024) fail(line_number, "bad degree");
        spec.config.tree_degree = static_cast<int>(degree);
      }
    } else if (key == "strategy") {
      if (value == "user") {
        spec.config.strategy = rekey::StrategyKind::kUserOriented;
      } else if (value == "key") {
        spec.config.strategy = rekey::StrategyKind::kKeyOriented;
      } else if (value == "group") {
        spec.config.strategy = rekey::StrategyKind::kGroupOriented;
      } else if (value == "hybrid") {
        spec.config.strategy = rekey::StrategyKind::kHybrid;
      } else {
        fail(line_number, "unknown strategy '" + std::string(value) + "'");
      }
    } else if (key == "cipher") {
      if (value == "des") {
        spec.config.suite.cipher = crypto::CipherAlgorithm::kDes;
      } else if (value == "3des") {
        spec.config.suite.cipher = crypto::CipherAlgorithm::kDes3;
      } else if (value == "aes128") {
        spec.config.suite.cipher = crypto::CipherAlgorithm::kAes128;
      } else {
        fail(line_number, "unknown cipher '" + std::string(value) + "'");
      }
    } else if (key == "digest") {
      if (value == "none") {
        spec.config.suite.digest = crypto::DigestAlgorithm::kNone;
      } else if (value == "md5") {
        spec.config.suite.digest = crypto::DigestAlgorithm::kMd5;
      } else if (value == "sha1") {
        spec.config.suite.digest = crypto::DigestAlgorithm::kSha1;
      } else if (value == "sha256") {
        spec.config.suite.digest = crypto::DigestAlgorithm::kSha256;
      } else {
        fail(line_number, "unknown digest '" + std::string(value) + "'");
      }
    } else if (key == "signature") {
      if (value == "none") {
        spec.config.suite.signature = crypto::SignatureAlgorithm::kNone;
      } else if (value == "rsa512") {
        spec.config.suite.signature = crypto::SignatureAlgorithm::kRsa512;
      } else if (value == "rsa768") {
        spec.config.suite.signature = crypto::SignatureAlgorithm::kRsa768;
      } else if (value == "rsa1024") {
        spec.config.suite.signature = crypto::SignatureAlgorithm::kRsa1024;
      } else if (value == "rsa2048") {
        spec.config.suite.signature = crypto::SignatureAlgorithm::kRsa2048;
      } else {
        fail(line_number, "unknown signature '" + std::string(value) + "'");
      }
    } else if (key == "signing") {
      if (value == "none") {
        spec.config.signing = rekey::SigningMode::kNone;
      } else if (value == "digest") {
        spec.config.signing = rekey::SigningMode::kDigestOnly;
      } else if (value == "per-message") {
        spec.config.signing = rekey::SigningMode::kPerMessage;
      } else if (value == "batch") {
        spec.config.signing = rekey::SigningMode::kBatch;
      } else {
        fail(line_number, "unknown signing mode '" + std::string(value) +
                              "'");
      }
    } else if (key == "group") {
      spec.config.group =
          static_cast<GroupId>(parse_number(value, line_number));
    } else if (key == "seed") {
      spec.config.rng_seed = parse_number(value, line_number);
    } else if (key == "seal_threads") {
      const std::uint64_t threads = parse_number(value, line_number);
      if (threads < 1 || threads > 256) fail(line_number, "bad seal_threads");
      spec.config.seal_threads = static_cast<std::size_t>(threads);
    } else if (key == "retransmit_window") {
      const std::uint64_t window = parse_number(value, line_number);
      if (window > 4096) fail(line_number, "bad retransmit_window");
      spec.config.retransmit_window = static_cast<std::size_t>(window);
    } else if (key == "recovery_rate") {
      // Recovery-request tokens per user per second; 0 = unlimited.
      const std::uint64_t rate = parse_number(value, line_number);
      if (rate > 1'000'000) fail(line_number, "bad recovery_rate");
      spec.config.recovery_rate = static_cast<double>(rate);
    } else if (key == "recovery_burst") {
      const std::uint64_t burst = parse_number(value, line_number);
      if (burst < 1 || burst > 1'000'000) {
        fail(line_number, "bad recovery_burst");
      }
      spec.config.recovery_burst = static_cast<double>(burst);
    } else if (key == "auth_master") {
      try {
        spec.config.auth_master = from_hex(std::string(value));
      } catch (const std::exception&) {
        fail(line_number, "auth_master must be hex");
      }
      if (spec.config.auth_master.empty()) {
        fail(line_number, "auth_master must not be empty");
      }
    } else if (key == "initial_size") {
      spec.initial_size = parse_number(value, line_number);
    } else if (key == "port") {
      const std::uint64_t port = parse_number(value, line_number);
      if (port > 65535) fail(line_number, "bad port");
      spec.port = static_cast<std::uint16_t>(port);
    } else if (key == "acl") {
      if (value == "all") {
        spec.acl.reset();
      } else {
        std::vector<UserId> users;
        std::size_t start = 0;
        const std::string list(value);
        while (start <= list.size()) {
          const std::size_t comma = list.find(',', start);
          const std::string item(trim(std::string_view(list).substr(
              start, comma == std::string::npos ? std::string::npos
                                                : comma - start)));
          if (!item.empty()) {
            users.push_back(parse_number(item, line_number));
          }
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        spec.acl = std::move(users);
      }
    } else if (key == "telemetry") {
      if (value == "off") {
        spec.telemetry = TelemetryFormat::kOff;
      } else if (value == "json") {
        spec.telemetry = TelemetryFormat::kJson;
      } else if (value == "prom") {
        spec.telemetry = TelemetryFormat::kPrometheus;
      } else {
        fail(line_number,
             "unknown telemetry format '" + std::string(value) + "'");
      }
    } else if (key == "telemetry_period") {
      const std::uint64_t period = parse_number(value, line_number);
      if (period > 86400) fail(line_number, "bad telemetry_period");
      spec.telemetry_period_s = static_cast<std::uint32_t>(period);
    } else if (key == "telemetry_http_port") {
      const std::uint64_t port = parse_number(value, line_number);
      if (port > 65535) fail(line_number, "bad telemetry_http_port");
      spec.telemetry_http_port = static_cast<std::uint16_t>(port);
    } else if (key == "trace_propagation") {
      if (value == "on") {
        spec.config.trace_propagation = true;
      } else if (value == "off") {
        spec.config.trace_propagation = false;
      } else {
        fail(line_number, "trace_propagation must be on or off");
      }
    } else if (key == "convergence_slo_us") {
      spec.convergence_slo_us = parse_number(value, line_number);
    } else if (key == "storage") {
      if (value == "none") {
        spec.config.storage.kind = storage::Kind::kNone;
      } else if (value == "memory") {
        spec.config.storage.kind = storage::Kind::kMemory;
      } else if (value == "file") {
        spec.config.storage.kind = storage::Kind::kFile;
      } else {
        fail(line_number, "unknown storage backend '" + std::string(value) +
                              "'");
      }
    } else if (key == "journal_dir") {
      if (value.empty()) fail(line_number, "journal_dir must not be empty");
      spec.config.storage.journal_dir = std::string(value);
    } else if (key == "snapshot_interval") {
      const std::uint64_t interval = parse_number(value, line_number);
      if (interval > (1u << 30)) fail(line_number, "bad snapshot_interval");
      spec.config.storage.snapshot_interval =
          static_cast<std::uint32_t>(interval);
    } else if (key == "overload") {
      if (value == "on") {
        spec.config.overload.enabled = true;
      } else if (value == "off") {
        spec.config.overload.enabled = false;
      } else {
        fail(line_number, "overload must be on or off");
      }
    } else if (key == "admission_queue") {
      const std::uint64_t queue = parse_number(value, line_number);
      if (queue < 1 || queue > (1u << 20)) {
        fail(line_number, "bad admission_queue");
      }
      spec.config.overload.admission_queue =
          static_cast<std::size_t>(queue);
    } else if (key == "shed_deadline_us") {
      // 0 disables the queue deadline.
      const std::uint64_t deadline = parse_number(value, line_number);
      if (deadline > 3'600'000'000ULL) {
        fail(line_number, "bad shed_deadline_us");
      }
      spec.config.overload.shed_deadline_us = deadline;
    } else if (key == "degraded_batch_period_us") {
      const std::uint64_t period = parse_number(value, line_number);
      if (period < 1 || period > 60'000'000) {
        fail(line_number, "bad degraded_batch_period_us");
      }
      spec.config.overload.degraded_batch_period_us = period;
    } else if (key == "admission_rate") {
      // Admitted requests per lane per second; 0 = unlimited.
      const std::uint64_t rate = parse_number(value, line_number);
      if (rate > 10'000'000) fail(line_number, "bad admission_rate");
      spec.config.overload.admission_rate = static_cast<double>(rate);
    } else if (key == "admission_burst") {
      const std::uint64_t burst = parse_number(value, line_number);
      if (burst < 1 || burst > 10'000'000) {
        fail(line_number, "bad admission_burst");
      }
      spec.config.overload.admission_burst = static_cast<double>(burst);
    } else {
      fail(line_number, "unknown key '" + std::string(key) + "'");
    }
  }

  // Cross-field sanity: a signing mode that needs RSA needs a signature
  // algorithm (same check the server constructor performs, surfaced early).
  if ((spec.config.signing == rekey::SigningMode::kPerMessage ||
       spec.config.signing == rekey::SigningMode::kBatch) &&
      !spec.config.suite.signs()) {
    throw ProtocolError("spec: signing mode requires signature != none");
  }
  // The disk-backed journal needs somewhere to live.
  if (spec.config.storage.kind == storage::Kind::kFile &&
      spec.config.storage.journal_dir.empty()) {
    throw ProtocolError("spec: storage = file requires journal_dir");
  }
  return spec;
}

ServerSpec load_server_spec(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot read spec file: " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return parse_server_spec(contents.str());
}

}  // namespace keygraphs::server
