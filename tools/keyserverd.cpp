// keyserverd — the group key server as a standalone UDP daemon, initialized
// from a specification file exactly like the paper's prototype.
//
// Usage:
//   keyserverd <spec-file>
//
// Example spec (see src/server/spec.h for the full grammar):
//   degree      = 4
//   strategy    = group
//   cipher      = des
//   digest      = md5
//   signature   = rsa512
//   signing     = batch
//   auth_master = deadbeefcafe
//   port        = 4747
//   telemetry   = json
//
// Protocol (all datagrams use the library wire format):
//   client -> server : kJoinRequest   { u64 user, var token }
//   client -> server : kLeaveRequest  { u64 user, var token }
//   client -> server : kResyncRequest { u64 user, var token }
//   client -> server : kNackRequest   { u64 user, var token, u64 have_epoch }
//   server -> client : kRekey / kJoinDenied / kLeaveAck
//   server -> client : kRetryLater { u64 retry_after_us }   (overload = on)
//
// With `overload = on` in the spec, joins and leaves pass through the
// admission gate: under pressure they are coalesced into periodic batch
// rekeys (the join welcome arrives with the flush) or shed with a
// kRetryLater hint; recovery requests are shed outright while the server
// is in the shedding state. With the default `overload = off` the gate is
// bypassed entirely and every wire byte matches the pre-overload daemon.
//
// The daemon prints one line per handled request. With `telemetry = json` or
// `telemetry = prom` it dumps a metrics snapshot to stderr every
// `telemetry_period` seconds and whenever it receives SIGUSR1; with
// `telemetry = off` (the default) the instrumentation is disabled entirely.
// Stop with Ctrl-C.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>

#include <optional>
#include <unordered_map>

#include "common/error.h"
#include "common/io.h"
#include "server/request.h"
#include "server/sharded_server.h"
#include "server/spec.h"
#include "telemetry/convergence.h"
#include "telemetry/export.h"
#include "telemetry/http.h"
#include "telemetry/metrics.h"
#include "transport/udp.h"

using namespace keygraphs;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void handle_signal(int) { g_stop = 1; }

// Only sets a flag; the recv loop (250 ms poll timeout, EINTR-tolerant)
// notices it on its next pass, so the dump never races request handling.
void handle_dump_signal(int) { g_dump = 1; }

void print_stats(const server::ShardedGroupKeyServer& server) {
  const server::Summary joins =
      server.stats().summarize(rekey::RekeyKind::kJoin);
  const server::Summary leaves =
      server.stats().summarize(rekey::RekeyKind::kLeave);
  std::size_t height = 0;
  for (std::size_t shard = 0; shard < server.shard_count(); ++shard) {
    height = std::max(height, server.shard_view(shard)->height());
  }
  std::printf("[stats] members=%zu height=%zu epoch=%llu | joins=%zu "
              "(%.2f ms, %.1f enc) leaves=%zu (%.2f ms, %.1f enc)\n",
              server.member_count(), height,
              static_cast<unsigned long long>(server.epoch()),
              joins.operations, joins.avg_processing_ms,
              joins.avg_encryptions, leaves.operations,
              leaves.avg_processing_ms, leaves.avg_encryptions);
}

void send_retry_later(transport::UdpSocket& socket,
                      const transport::Address& to,
                      std::uint64_t retry_after_us) {
  ByteWriter writer;
  writer.u64(retry_after_us);
  socket.send_to(
      to, rekey::Datagram{rekey::MessageType::kRetryLater, writer.take()}
              .encode());
}

void dump_telemetry(server::TelemetryFormat format) {
  const std::string rendered =
      format == server::TelemetryFormat::kPrometheus
          ? telemetry::render_prometheus(telemetry::Registry::global())
          : telemetry::render_jsonl(telemetry::Registry::global());
  std::fwrite(rendered.data(), 1, rendered.size(), stderr);
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <spec-file>\n", argv[0]);
    return 2;
  }

  // One log line per request: line-buffered even when stdout is a file, so
  // a reader of the log (or a crash) never misses a line the daemon wrote.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  server::ServerSpec spec;
  try {
    spec = server::load_server_spec(argv[1]);
  } catch (const Error& error) {
    std::fprintf(stderr, "keyserverd: %s\n", error.what());
    return 2;
  }

  const bool telemetry_on = spec.telemetry != server::TelemetryFormat::kOff;
  telemetry::set_enabled(telemetry_on);
  telemetry::ConvergenceMonitor::global().set_slo_us(spec.convergence_slo_us);

  transport::UdpSocket socket =
      spec.port != 0 ? transport::UdpSocket(spec.port)
                     : transport::UdpSocket();
  transport::UdpServerTransport transport(socket);
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{spec.config},
                                       transport, spec.access_control());

  // Crash recovery: rebuild state from the journal before serving (or
  // admitting the initial cohort — on a restart those users are already
  // members and the joins below return kDuplicate). A torn tail means the
  // process died mid-append; that record's datagrams never left, so
  // dropping it is safe.
  if (server.durable() != nullptr) {
    try {
      storage::RecoveryOptions options;
      options.tolerate_torn_tail = true;
      server.recover_from_storage(options);
      std::printf("keyserverd: recovered epoch %llu, %zu members from %s "
                  "journal\n",
                  static_cast<unsigned long long>(server.epoch()),
                  server.member_count(),
                  server.durable()->backend().name());
    } catch (const storage::StorageError& error) {
      std::fprintf(stderr, "keyserverd: journal recovery failed: %s\n",
                   error.what());
      return 3;
    }
  }

  for (UserId user = 1; user <= spec.initial_size; ++user) {
    server.join(user);
  }

  // The production scrape path: /metrics, /healthz and /trace on loopback,
  // served from a dedicated thread so a scrape never blocks the receive
  // loop below. SIGUSR1 stderr dumps stay available as the fallback.
  // Started only now, after recovery and the initial cohort have
  // committed, so the first /healthz answer means the state is complete.
  std::optional<telemetry::TelemetryHttpServer> http;
  if (spec.telemetry_http_port.has_value()) {
    try {
      http.emplace(*spec.telemetry_http_port);
    } catch (const Error& error) {
      std::fprintf(stderr, "keyserverd: %s\n", error.what());
      return 2;
    }
    std::printf("keyserverd: telemetry http on 127.0.0.1:%u "
                "(/metrics /healthz /trace)\n",
                static_cast<unsigned>(http->port()));
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump_signal);
  std::printf("keyserverd: %s rekeying, %s, listening on %s "
              "(initial size %zu, seal threads %zu, trace propagation %s)\n",
              rekey::strategy_name(spec.config.strategy).c_str(),
              spec.config.suite.label().c_str(),
              socket.local_address().to_string().c_str(),
              spec.initial_size, spec.config.seal_threads,
              spec.config.trace_propagation ? "on" : "off");

  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::seconds(spec.telemetry_period_s);
  auto next_dump = Clock::now() + period;

  const bool overload_on = spec.config.overload.enabled;
  // Where each coalesced op's client lives, so a deadline shed at flush
  // time can still be answered with a kRetryLater datagram. Cleared on
  // every flush: the server drops its whole coalesce buffer then.
  std::unordered_map<UserId, transport::Address> coalesced_from;

  while (!g_stop) {
    if (telemetry_on) {
      const bool timer_due =
          spec.telemetry_period_s > 0 && Clock::now() >= next_dump;
      if (g_dump != 0 || timer_due) {
        g_dump = 0;
        print_stats(server);
        dump_telemetry(spec.telemetry);
        next_dump = Clock::now() + period;
      }
    } else if (g_dump != 0) {
      g_dump = 0;
      print_stats(server);  // SIGUSR1 still gives the plain summary
    }

    if (overload_on) {
      // Degraded-mode tick: when the batch period elapses this coalesces
      // every buffered join/leave into one batch rekey; ops whose shed
      // deadline passed are answered with kRetryLater instead.
      const server::OverloadTick tick = server.poll_overload();
      for (const server::overload::ShedNotice& notice : tick.shed) {
        if (notice.join) transport.unregister_user(notice.user);
        const auto it = coalesced_from.find(notice.user);
        if (it != coalesced_from.end()) {
          send_retry_later(socket, it->second, notice.retry_after_us);
        }
        std::printf("shed %s %llu at flush (deadline)\n",
                    notice.join ? "join" : "leave",
                    static_cast<unsigned long long>(notice.user));
      }
      if (tick.flushed || !tick.shed.empty()) coalesced_from.clear();
      if (tick.flushed) {
        std::printf("degraded flush -> %zu joins admitted (health=%s)\n",
                    tick.joined.size(),
                    server::overload::health_name(server.health()));
      }
    }

    const auto received = socket.receive(250);
    if (!received.has_value()) continue;
    const auto& [from, data] = *received;
    try {
      const server::Request request = server::decode_request(data);
      const UserId user = request.user;
      const Bytes& token = request.token;
      if (request.type == rekey::MessageType::kJoinRequest) {
        if (overload_on) {
          const server::GateResult gate = server.offer_join(user, token);
          if (gate.denied) {
            socket.send_to(
                from, rekey::Datagram{rekey::MessageType::kJoinDenied, {}}
                          .encode());
            std::printf("join %llu from %s -> denied\n",
                        static_cast<unsigned long long>(user),
                        from.to_string().c_str());
            continue;
          }
          if (gate.action == server::overload::Admission::kShed) {
            send_retry_later(socket, from, gate.retry_after_us);
            std::printf("join %llu from %s -> shed (retry in %llu us)\n",
                        static_cast<unsigned long long>(user),
                        from.to_string().c_str(),
                        static_cast<unsigned long long>(gate.retry_after_us));
            continue;
          }
          if (gate.action == server::overload::Admission::kCoalesce) {
            // Registered now so the flush's batch rekey reaches the user:
            // the join welcome is deferred to the next degraded flush.
            transport.register_user(user, from);
            coalesced_from[user] = from;
            std::printf("join %llu from %s -> coalesced\n",
                        static_cast<unsigned long long>(user),
                        from.to_string().c_str());
            continue;
          }
          // kAdmit: fall through to the immediate path below.
        }
        transport.register_user(user, from);
        const server::JoinResult result = server.join_with_token(user, token);
        if (result != server::JoinResult::kGranted) {
          transport.unregister_user(user);
          socket.send_to(from,
                         rekey::Datagram{rekey::MessageType::kJoinDenied, {}}
                             .encode());
        }
        std::printf("join %llu from %s -> %s\n",
                    static_cast<unsigned long long>(user),
                    from.to_string().c_str(),
                    result == server::JoinResult::kGranted ? "granted"
                                                           : "denied");
      } else if (request.type == rekey::MessageType::kResyncRequest) {
        if (overload_on &&
            server.health() == server::overload::HealthState::kShedding) {
          // Resyncs are the most expensive replies the server can build;
          // in the shedding state they are deferred wholesale.
          send_retry_later(socket, from,
                           spec.config.overload.degraded_batch_period_us);
          std::printf("resync %llu -> shed\n",
                      static_cast<unsigned long long>(user));
          continue;
        }
        const bool ok = server.resync_with_token(user, token);
        std::printf("resync %llu -> %s\n",
                    static_cast<unsigned long long>(user),
                    ok ? "replayed" : "denied");
      } else if (request.type == rekey::MessageType::kNackRequest) {
        if (overload_on &&
            server.health() == server::overload::HealthState::kShedding) {
          send_retry_later(socket, from,
                           spec.config.overload.degraded_batch_period_us);
          std::printf("nack %llu -> shed\n",
                      static_cast<unsigned long long>(user));
          continue;
        }
        const std::optional<server::NackOutcome> outcome =
            server.nack_with_token(user, token, request.have_epoch);
        const char* label = "denied";
        if (outcome.has_value()) {
          switch (*outcome) {
            case server::NackOutcome::kRetransmitted:
              label = "retransmitted";
              break;
            case server::NackOutcome::kResynced:
              label = "resynced";
              break;
            case server::NackOutcome::kRateLimited:
              label = "rate-limited";
              break;
          }
        }
        std::printf("nack %llu have=%llu -> %s\n",
                    static_cast<unsigned long long>(user),
                    static_cast<unsigned long long>(request.have_epoch),
                    label);
      } else if (request.type == rekey::MessageType::kLeaveRequest) {
        if (overload_on) {
          const server::GateResult gate = server.offer_leave(user, token);
          if (gate.denied) {
            socket.send_to(from,
                           rekey::Datagram{rekey::MessageType::kLeaveAck, {}}
                               .encode());
            std::printf("leave %llu -> denied\n",
                        static_cast<unsigned long long>(user));
            continue;
          }
          if (gate.action == server::overload::Admission::kShed) {
            send_retry_later(socket, from, gate.retry_after_us);
            std::printf("leave %llu -> shed (retry in %llu us)\n",
                        static_cast<unsigned long long>(user),
                        static_cast<unsigned long long>(gate.retry_after_us));
            continue;
          }
          if (gate.action == server::overload::Admission::kCoalesce) {
            // Acked now: the departure is accepted and applied with the
            // next flush. A deadline shed still answers kRetryLater, so
            // the client learns if the ack was optimistic.
            coalesced_from[user] = from;
            socket.send_to(from,
                           rekey::Datagram{rekey::MessageType::kLeaveAck, {}}
                               .encode());
            std::printf("leave %llu -> coalesced\n",
                        static_cast<unsigned long long>(user));
            continue;
          }
        }
        const bool granted = server.leave_with_token(user, token);
        if (granted) transport.unregister_user(user);
        socket.send_to(from,
                       rekey::Datagram{rekey::MessageType::kLeaveAck, {}}
                           .encode());
        std::printf("leave %llu -> %s\n",
                    static_cast<unsigned long long>(user),
                    granted ? "granted" : "denied");
      }
    } catch (const Error& error) {
      std::fprintf(stderr, "bad datagram from %s: %s\n",
                   from.to_string().c_str(), error.what());
    }
  }

  std::printf("\nkeyserverd: shutting down\n");
  print_stats(server);
  if (telemetry_on) dump_telemetry(spec.telemetry);
  return 0;
}
