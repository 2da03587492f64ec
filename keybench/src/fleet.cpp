// fleet-udp-1k: the request-to-convergence path over real sockets.
//
// K=1, 1,024 preloaded members, each a client::GroupClient behind its own
// non-blocking loopback UDP socket. The server sits behind
// UdpServerTransport on its own thread and serves request datagrams the
// way keyserverd does (decode_request, then join_with_token /
// leave_with_token / resync_with_token). The main thread is the open-loop
// generator plus the receive pump: requests fall due at a fixed rate
// (45% join, 45% leave, 10% resync) whether or not earlier ones finished,
// and every client socket is drained through one epoll set.
//
// Request bookkeeping crosses threads through one preallocated array: the
// generator fills a slot and publishes it with `sent` (release) before the
// datagram leaves; the server fills its half and publishes `served`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "client/client.h"
#include "common/io.h"
#include "harness.h"
#include "rekey/codec.h"
#include "server/request.h"
#include "server/sharded_server.h"
#include "shadow.h"
#include "transport/udp.h"

namespace keybench {
namespace {

namespace kg = keygraphs;
using Server = kg::server::ShardedGroupKeyServer;
using kg::rekey::MessageType;

constexpr std::size_t kMembers = 1024;
/// Offered load, fixed with the workload: about half the ~100 ops/s at
/// which the backlog started to grow on a 4-core host at the seed commit.
constexpr double kRatePerSecond = 50.0;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kJoinsPerBlock = 9;  // 9 join, 9 leave, 2 resync
constexpr std::size_t kResyncsPerBlock = 2;
constexpr std::int64_t kDrainNs = 3'000'000'000;
/// Open-loop health: a run whose backlog at the end of the window exceeds
/// this, or whose generator ran later than half a period at p99, is invalid.
constexpr std::uint64_t kMaxBacklog = 8;
constexpr UserId kFreshBase = UserId{1} << 40;

/// One non-blocking loopback UDP socket, closed on destruction.
class ClientSocket {
 public:
  ClientSocket() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + errno_text());
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(address);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), length) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) !=
            0) {
      const std::string error = errno_text();
      ::close(fd_);
      throw std::runtime_error("bind(): " + error);
    }
    port_ = ntohs(address.sin_port);
  }
  ~ClientSocket() { ::close(fd_); }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

struct Member {
  UserId user = 0;
  ClientSocket socket;
  std::unique_ptr<kg::client::GroupClient> client;
  bool joined = false;          // preloaded, or its welcome was applied
  std::int64_t request = -1;    // join or resync in flight (slot index)
};

/// Whether tracing was on for a server call: all of it, none of it, or
/// it was switched during the call (such calls count on neither side).
enum class TraceState : std::uint8_t { kOff, kOn, kMixed };

struct Slot {
  // Generator half, published by `sent`.
  OpKind kind = OpKind::kJoin;
  UserId user = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  // Server half, published by `served`.
  std::int64_t call_start_ns = 0;
  std::int64_t call_end_ns = 0;
  std::int64_t deliver_return_ns = 0;
  std::uint64_t epoch = 0;
  std::size_t members = 0;
  bool ok = false;
  TraceState trace = TraceState::kOff;
  /// The transport decorator's traced counts for this call alone (the
  /// server thread is the only one delivering).
  std::uint64_t resolves = 0;
  std::uint64_t resolved_users = 0;
  std::uint64_t wire_bytes = 0;
  // Pump only.
  bool done = false;
  bool replay_ok = true;        // resync: the replay was accepted
  std::int64_t welcome_ns = 0;  // joiner keyed / resync replay applied
};

/// Per-epoch convergence tally (pump only).
struct EpochTally {
  std::size_t applied = 0;
  std::size_t required = 0;  // 0 until the server reports the epoch
  std::int64_t last_apply_ns = 0;
  std::int64_t last_read_ns = 0;
  std::int64_t slot = -1;
};

/// Server, transport stack and client population: everything set-up builds.
struct Fleet {
  explicit Fleet(const kg::server::ShardedServerConfig& config)
      : udp(socket), timed(udp), server(config, timed) {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) throw std::runtime_error("epoll_create1 failed");
  }
  ~Fleet() { ::close(epoll_fd); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Member& add_member(UserId user, const kg::crypto::CryptoSuite& suite) {
    auto member = std::make_unique<Member>();
    member->user = user;
    kg::client::ClientConfig config;
    config.user = user;
    config.suite = suite;
    config.root = server.root_id();
    config.rng_seed = user;
    member->client = std::make_unique<kg::client::GroupClient>(
        config, server.public_key());
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = member.get();
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, member->socket.fd(), &event) !=
        0) {
      throw std::runtime_error("epoll_ctl failed");
    }
    Member& added = *member;
    by_user[user] = member.get();
    members.push_back(std::move(member));
    return added;
  }

  kg::transport::UdpSocket socket;
  kg::transport::UdpServerTransport udp;
  TimedTransport timed;
  Server server;
  int epoll_fd = -1;
  std::vector<std::unique_ptr<Member>> members;
  std::unordered_map<UserId, Member*> by_user;
};

std::unique_ptr<Fleet> build_fleet(const kg::server::ShardedServerConfig& config,
                                   std::size_t spares) {
  auto fleet = std::make_unique<Fleet>(config);
  const std::vector<UserId> initial = initial_members(kMembers);
  fleet->server.preload(initial);
  for (const UserId user : initial) {
    Member& member = fleet->add_member(user, config.base.suite);
    member.client->admit_snapshot(fleet->server.keyset(user), 0);
    member.joined = true;
    fleet->udp.register_user(
        user, kg::transport::Address::loopback(member.socket.port()));
  }
  // Joiners: the generator hands out fresh ids from kFreshBase upward.
  for (std::size_t i = 0; i < spares; ++i) {
    const UserId user = kFreshBase + i;
    Member& member = fleet->add_member(user, config.base.suite);
    member.client->install_individual_key(kg::SymmetricKey{
        kg::individual_key_id(user), 1,
        fleet->server.auth().individual_key(user,
                                            config.base.suite.key_size())});
  }
  return fleet;
}

kg::Bytes request_datagram(MessageType type, UserId user,
                           const kg::Bytes& token) {
  kg::ByteWriter writer;
  writer.u64(user);
  writer.var_bytes(token);
  return kg::rekey::Datagram{type, writer.take()}.encode();
}

/// True when `datagram` is a keyset replay for `user`: a rekey whose blobs
/// are all wrapped under the user's individual key (what resync answers).
bool is_keyset_replay(kg::BytesView datagram, UserId user) {
  try {
    const kg::rekey::Datagram decoded = kg::rekey::Datagram::decode(datagram);
    if (decoded.type != MessageType::kRekey) return false;
    const kg::rekey::OpenedRekey opened =
        kg::rekey::RekeyOpener(nullptr).open(decoded.payload, false);
    if (opened.message.blobs.empty()) return false;
    for (const kg::rekey::KeyBlob& blob : opened.message.blobs) {
      if (blob.wrap.id != kg::individual_key_id(user)) return false;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Pins the calling thread to the highest-numbered CPU this process may
/// use (no-op with fewer than two). The server thread is pinned so its
/// fan-out cost does not change with the core the scheduler picks; the
/// pump stays free.
void pin_to_last_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus.back(), &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// The server thread: keyserverd's request handling, minus its logging.
class ServerLoop {
 public:
  ServerLoop(Fleet& fleet, std::vector<Slot>& slots,
             const std::atomic<std::size_t>& sent,
             std::atomic<std::size_t>& served)
      : fleet_(fleet), slots_(slots), sent_(sent), served_(served) {
    thread_ = std::thread([this] { run(); });
  }
  ~ServerLoop() { stop(); }
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Set when the loop died on an exception (read after stop()).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  void run() {
    pin_to_last_cpu();
    try {
      std::size_t next = 0;
      while (!stop_.load()) {
        // Busy-polls (zero timeout) so an idle core never has to wake up
        // for a request: wake-up latency is host noise, not server cost.
        const auto received = fleet_.socket.receive(0);
        if (!received.has_value()) continue;
        if (next >= sent_.load(std::memory_order_acquire)) continue;
        serve(slots_[next], next, received->first, received->second);
        served_.store(++next, std::memory_order_release);
      }
    } catch (const std::exception& error) {
      error_ = error.what();
    }
  }

  void serve(Slot& slot, std::size_t index, const kg::transport::Address& from,
             const kg::Bytes& data) {
    set_current_request(index + 1);
    Server& server = fleet_.server;
    kg::server::Request request;
    try {
      request = kg::server::decode_request(data);
    } catch (const std::exception&) {
      slot.ok = false;
      return;
    }
    if (request.user != slot.user) return;  // out of order: slot.ok stays false
    const UserId user = request.user;
    if (request.type == MessageType::kJoinRequest) {
      fleet_.udp.register_user(user, from);
    }
    const TimedTransport::Counts before = fleet_.timed.counts();
    const bool traced_at_start = Tracer::global().enabled();
    slot.call_start_ns = now_ns();
    try {
      const SpanScope span("server.call");
      switch (request.type) {
        case MessageType::kJoinRequest:
          slot.ok = server.join_with_token(user, request.token) ==
                    kg::server::JoinResult::kGranted;
          break;
        case MessageType::kLeaveRequest:
          slot.ok = server.leave_with_token(user, request.token);
          break;
        case MessageType::kResyncRequest:
          slot.ok = server.resync_with_token(user, request.token);
          break;
        default:
          break;
      }
    } catch (const std::exception&) {
      slot.ok = false;
    }
    slot.call_end_ns = now_ns();
    const bool traced_at_end = Tracer::global().enabled();
    slot.trace = traced_at_start != traced_at_end ? TraceState::kMixed
                 : traced_at_start               ? TraceState::kOn
                                                 : TraceState::kOff;
    const TimedTransport::Counts after = fleet_.timed.counts();
    slot.resolves = after.resolves - before.resolves;
    slot.resolved_users = after.resolved_users - before.resolved_users;
    slot.wire_bytes = after.wire_bytes - before.wire_bytes;
    slot.deliver_return_ns = fleet_.timed.last_return_ns();
    slot.epoch = server.epoch();
    slot.members = server.member_count();
    if (request.type == MessageType::kJoinRequest && !slot.ok) {
      fleet_.udp.unregister_user(user);
      fleet_.socket.send_to(
          from, kg::rekey::Datagram{MessageType::kJoinDenied, {}}.encode());
    } else if (request.type == MessageType::kLeaveRequest) {
      if (slot.ok) fleet_.udp.unregister_user(user);
      fleet_.socket.send_to(
          from, kg::rekey::Datagram{MessageType::kLeaveAck, {}}.encode());
    }
  }

  Fleet& fleet_;
  std::vector<Slot>& slots_;
  const std::atomic<std::size_t>& sent_;
  std::atomic<std::size_t>& served_;
  std::atomic<bool> stop_{false};
  std::string error_;
  std::thread thread_;  // last: started after every member it reads
};

}  // namespace

Report run_fleet(const Options& options) {
  Report report;
  const auto period_ns = static_cast<std::int64_t>(1e9 / kRatePerSecond);
  const auto seconds_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const auto capacity =
      static_cast<std::size_t>(std::ceil(options.seconds * kRatePerSecond)) +
      16;
  const std::size_t spares = capacity / 2 + 32;

  kg::server::ShardedServerConfig config;
  config.shards = 1;
  config.base.rng_seed = kServerRngSeed;
  config.base.suite = kg::crypto::CryptoSuite::paper_plain();
  config.base.strategy = kg::rekey::StrategyKind::kGroupOriented;
  config.base.signing = kg::rekey::SigningMode::kNone;
  report.note("shards", "1");
  report.note("members", std::to_string(kMembers));
  report.note("suite", json_string(config.base.suite.label()));
  report.note("strategy", "\"group-oriented\"");
  report.note("rate_per_s", json_number(kRatePerSecond));

  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const std::int64_t start = now_ns();
    fleet = build_fleet(config, spares);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  report.metric("setup_s", median_of(setups));
  Server& server = fleet->server;

  const kg::transport::Address server_address = fleet->socket.local_address();
  sockaddr_in server_sockaddr{};
  server_sockaddr.sin_family = AF_INET;
  server_sockaddr.sin_addr.s_addr = htonl(server_address.ip);
  server_sockaddr.sin_port = htons(server_address.port);

  std::vector<Slot> slots(capacity);
  std::vector<EpochTally> epochs(capacity + 2);
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> served{0};
  ChurnGenerator generator(options.seed, initial_members(kMembers), kFreshBase,
                           kJoinsPerBlock, kResyncsPerBlock);
  // The clients' side of the authentication exchange.
  const kg::server::AuthService auth(config.base.auth_master);

  Samples late_us;
  Samples client_apply_us;
  std::uint64_t keys_decrypted = 0;
  std::size_t generated = 0;
  std::size_t processed = 0;  // served slots the pump has absorbed
  std::size_t completed = 0;
  std::int64_t backlog_end = -1;
  const std::int64_t begin = now_ns() + 50'000'000;  // first due time
  const std::int64_t window_end = begin + seconds_ns;
  bool tracing = false;
  const CacheCounters cache_before = CacheCounters::read();

  const auto finish = [&](std::int64_t slot_index) {
    Slot& slot = slots[static_cast<std::size_t>(slot_index)];
    if (slot.done) return;
    slot.done = true;
    ++completed;
    if (slot.kind != OpKind::kLeave) generator.set_busy(slot.user, false);
  };
  const auto check_epoch = [&](std::uint64_t epoch) {
    EpochTally& tally = epochs[epoch];
    if (tally.required == 0 || tally.applied < tally.required) return;
    if (tally.slot >= 0) finish(tally.slot);
  };

  ServerLoop loop(*fleet, slots, sent, served);
  std::vector<std::uint8_t> buffer(65536);
  epoll_event events[64];
  for (;;) {
    std::int64_t now = now_ns();

    // A traced run alternates untraced and traced blocks through the window.
    const bool trace_now = options.trace && now >= begin && now < window_end &&
                           (now - begin) / kTraceBlockNs % 2 == 1;
    if (trace_now != tracing) {
      tracing = trace_now;
      set_tracing(tracing);
    }

    // Generator: every request whose due time has come.
    while (generated < capacity) {
      const std::int64_t due = begin + static_cast<std::int64_t>(generated) *
                                           period_ns;
      if (due >= window_end || now < due) break;
      const Op op = generator.next();
      Slot& slot = slots[generated];
      slot.kind = op.kind;
      slot.user = op.user;
      slot.due_ns = due;
      Member& member = *fleet->by_user.at(op.user);
      MessageType type = MessageType::kJoinRequest;
      kg::Bytes token;
      switch (op.kind) {
        case OpKind::kJoin:
          token = auth.join_token(op.user);
          member.request = static_cast<std::int64_t>(generated);
          generator.set_busy(op.user, true);
          break;
        case OpKind::kLeave:
          type = MessageType::kLeaveRequest;
          token = auth.leave_token(op.user);
          break;
        case OpKind::kResync:
          type = MessageType::kResyncRequest;
          token = auth.resync_token(op.user);
          member.request = static_cast<std::int64_t>(generated);
          generator.set_busy(op.user, true);
          break;
      }
      const kg::Bytes datagram = request_datagram(type, op.user, token);
      slot.sent_ns = now_ns();
      sent.store(generated + 1, std::memory_order_release);
      ::sendto(member.socket.fd(), datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&server_sockaddr),
               sizeof(server_sockaddr));
      late_us.add(us_between(due, slot.sent_ns));
      ++generated;
      now = now_ns();
    }

    // Server results: epochs become checkable once their size is known.
    const std::size_t served_now = served.load(std::memory_order_acquire);
    for (; processed < served_now; ++processed) {
      Slot& slot = slots[processed];
      if (!slot.ok) {
        finish(static_cast<std::int64_t>(processed));  // counted as failed
        continue;
      }
      if (slot.kind == OpKind::kResync) continue;  // done on replay apply
      EpochTally& tally = epochs[slot.epoch];
      tally.required = slot.members;
      tally.slot = static_cast<std::int64_t>(processed);
      check_epoch(slot.epoch);
    }

    if (now >= window_end && backlog_end < 0) {
      backlog_end = static_cast<std::int64_t>(generated - completed);
    }
    if (now >= window_end &&
        (completed == generated || now >= window_end + kDrainNs)) {
      break;
    }

    // Receive pump, busy-polling like the server loop.
    const int ready = ::epoll_wait(fleet->epoll_fd, events, 64, 0);
    for (int i = 0; i < ready; ++i) {
      Member& member = *static_cast<Member*>(events[i].data.ptr);
      for (;;) {
        const ssize_t size =
            ::recv(member.socket.fd(), buffer.data(), buffer.size(), 0);
        if (size < 0) break;  // drained (EAGAIN)
        const std::int64_t read_ns = now_ns();
        const kg::BytesView datagram(buffer.data(),
                                     static_cast<std::size_t>(size));
        const bool awaiting_replay =
            member.request >= 0 &&
            slots[static_cast<std::size_t>(member.request)].kind ==
                OpKind::kResync &&
            is_keyset_replay(datagram, member.user);
        const std::uint64_t before = member.client->applied_epoch();
        kg::client::RekeyOutcome outcome;
        const std::int64_t apply_start = now_ns();
        {
          const SpanScope span("client.apply");
          outcome = member.client->handle_datagram(datagram);
        }
        const std::int64_t applied_ns = now_ns();
        if (tracing) client_apply_us.add(us_between(apply_start, applied_ns));
        keys_decrypted += outcome.keys_decrypted;
        const std::uint64_t after = member.client->applied_epoch();
        if (after > before) {
          // A joiner's welcome jumps it to its join epoch: it owes only
          // that epoch, not the ones before it joined.
          std::uint64_t from = before + 1;
          if (!member.joined) {
            from = after;
            member.joined = true;
            if (member.request >= 0) {
              slots[static_cast<std::size_t>(member.request)].welcome_ns =
                  applied_ns;
            }
          }
          for (std::uint64_t e = from; e <= after && e < epochs.size(); ++e) {
            EpochTally& tally = epochs[e];
            ++tally.applied;
            tally.last_apply_ns = applied_ns;
            tally.last_read_ns = read_ns;
            check_epoch(e);
          }
        }
        if (awaiting_replay) {
          Slot& slot = slots[static_cast<std::size_t>(member.request)];
          slot.welcome_ns = applied_ns;
          slot.replay_ok = outcome.accepted;
          finish(member.request);
        }
        if (member.request >= 0 &&
            slots[static_cast<std::size_t>(member.request)].done) {
          member.request = -1;
        }
      }
    }
  }
  loop.stop();
  const TimedTransport::Counts counts = fleet->timed.counts();
  set_tracing(false);
  const CacheCounters cache_after = CacheCounters::read();
  report.check(loop.error().empty(), "server loop failed: " + loop.error());

  // --- Results -------------------------------------------------------------
  Samples rekey_us[2];          // [untraced, traced]
  Samples rekey_by_kind[2][2];   // [untraced, traced][join, leave]
  Samples converge_us;
  Samples converge_by_kind[2];   // [join, leave]
  Samples welcome_us;
  Samples resync_us;
  Samples recv_lag_us;
  Samples queue_wait_us;
  std::uint64_t failed = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t traced_resolves = 0;
  std::uint64_t traced_resolved_users = 0;
  std::uint64_t traced_wire_bytes = 0;
  std::uint64_t membership_done = 0;
  std::int64_t last_converged_ns = begin;
  for (std::size_t i = 0; i < generated; ++i) {
    const Slot& slot = slots[i];
    const bool converged =
        slot.done && slot.ok &&
        (slot.kind == OpKind::kResync
             ? slot.replay_ok
             : epochs[slot.epoch].applied >= epochs[slot.epoch].required);
    if (!converged) {
      ++failed;
      continue;
    }
    const EpochTally& tally = epochs[slot.epoch];
    const bool traced = slot.trace == TraceState::kOn;
    if (traced) {
      ++traced_ops;
      traced_resolves += slot.resolves;
      traced_resolved_users += slot.resolved_users;
      traced_wire_bytes += slot.wire_bytes;
      queue_wait_us.add(us_between(slot.due_ns, slot.call_start_ns));
    }
    if (slot.kind == OpKind::kResync) {
      resync_us.add(us_between(slot.due_ns, slot.welcome_ns));
      continue;
    }
    ++membership_done;
    last_converged_ns = std::max(last_converged_ns, tally.last_apply_ns);
    const int kind = slot.kind == OpKind::kJoin ? 0 : 1;
    const double call_us = us_between(slot.call_start_ns, slot.call_end_ns);
    const double converge = us_between(slot.due_ns, tally.last_apply_ns);
    if (slot.trace != TraceState::kMixed) {
      rekey_us[traced ? 1 : 0].add(call_us);
      rekey_by_kind[traced ? 1 : 0][kind].add(call_us);
    }
    converge_us.add(converge);
    converge_by_kind[kind].add(converge);
    if (traced) {
      recv_lag_us.add(us_between(slot.deliver_return_ns, tally.last_read_ns));
    }
    if (slot.kind == OpKind::kJoin) {
      welcome_us.add(us_between(slot.due_ns, slot.welcome_ns));
    }
  }
  report.attempted = generated;
  report.failed = failed;
  report.note("samples", std::to_string(membership_done));

  // Open-loop health: a generator that fell behind or a growing backlog
  // makes the run invalid rather than slow.
  const double late_p99 = late_us.quantile(0.99);
  report.note("gen_late_us_p99", json_number(late_p99));
  report.note("backlog_end", std::to_string(backlog_end));
  report.check(late_p99 <= static_cast<double>(period_ns) / 2000.0,
               "invalid run: the generator fell behind its schedule");
  report.check(backlog_end >= 0 &&
                   static_cast<std::uint64_t>(backlog_end) <= kMaxBacklog,
               "invalid run: the request backlog grew");

  if (!options.trace) {
    report.metric("rekey_p50_us",
                  balanced_p50(rekey_by_kind[0][0], rekey_by_kind[0][1]));
    report.metric("rekey_p90_us", rekey_us[0].quantile(0.9));
    // Completed ops over the wall time from the first due request to the
    // last convergence.
    report.metric("rekeys_per_s",
                  static_cast<double>(membership_done) /
                      (us_between(begin, last_converged_ns) / 1e6));
    report.metric("converge_p50_us",
                  balanced_p50(converge_by_kind[0], converge_by_kind[1]));
    report.metric("converge_p90_us", converge_us.quantile(0.9));
    report.metric("welcome_p90_us", welcome_us.quantile(0.9));
    report.metric("resync_p90_us", resync_us.quantile(0.9));
    report.metric("wire_bytes_per_op", static_cast<double>(counts.bytes) /
                                           static_cast<double>(std::max<std::size_t>(generated, 1)));
  } else {
    const double ops = static_cast<double>(std::max<std::uint64_t>(traced_ops, 1));
    const double all_ops =
        static_cast<double>(std::max<std::size_t>(generated, 1));
    const std::map<std::string, Samples> self = Tracer::global().self_us();
    report.metric("keygraph.resolve_us", self_p50(self, "keygraph.resolve"));
    report.metric("keygraph.resolved_users_per_op",
                  static_cast<double>(traced_resolved_users) / ops);
    report.metric("transport.deliver_us", self_p50(self, "transport.deliver"));
    report.metric("transport.datagrams_per_op",
                  static_cast<double>(fleet->udp.datagrams_sent()) / all_ops);
    report.metric("transport.bytes_per_op",
                  static_cast<double>(traced_wire_bytes) / ops);
    report.metric("transport.send_errors",
                  static_cast<double>(fleet->udp.send_failures()));
    report.metric("client.apply_us_p50", client_apply_us.median());
    report.metric("client.apply_us_p99", client_apply_us.quantile(0.99));
    report.metric("client.keys_decrypted_per_op",
                  static_cast<double>(keys_decrypted) / all_ops);
    report.metric("client.recv_lag_us_p99", recv_lag_us.quantile(0.99));
    report.metric("server.self_us", self_p50(self, "server.call"));
    report.metric("server.queue_wait_us_p99", queue_wait_us.quantile(0.99));
    report.metric("rekey.cache_hit_ratio",
                  cache_hit_ratio(cache_before, cache_after));
    const double rekey_p50 =
        balanced_p50(rekey_by_kind[1][0], rekey_by_kind[1][1]);
    report.metric("harness.tracing_overhead",
                  tracing_overhead(rekey_p50, balanced_p50(rekey_by_kind[0][0],
                                                           rekey_by_kind[0][1])));
    report.metric("harness.gen_late_us_p99", late_p99);
    report.metric("harness.backlog_end", static_cast<double>(backlog_end));

    std::vector<Op> ops_in_order;
    for (std::size_t i = 0; i < generated; ++i) {
      ops_in_order.push_back(Op{slots[i].kind, slots[i].user});
    }
    ShadowConfig shadow;
    shadow.seed = options.seed;
    shadow.suite = config.base.suite;
    shadow.strategy = config.base.strategy;
    shadow.signing = config.base.signing;
    report_shadow(report, shadow, initial_members(kMembers), ops_in_order);
    const double transport_us =
        self_p50(self, "transport.deliver") +
        self_p50(self, "keygraph.resolve") *
            static_cast<double>(traced_resolves) / ops;
    report.metric("server.unattributed_us",
                  unattributed_us(report, rekey_p50, transport_us, 0.0));
    report.metric("harness.spans",
                  static_cast<double>(Tracer::global().size()));
  }
  report.metric("harness.op_fail_ratio",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::size_t>(generated, 1)));

  // --- Correctness at quiescence -------------------------------------------
  const kg::SymmetricKey group_key = server.group_key();
  report.check(server.member_count() == generator.live().size(),
               "member count differs from the generator's live set");
  std::size_t stale = 0;
  for (const UserId user : generator.live()) {
    const std::optional<kg::SymmetricKey> key =
        fleet->by_user.at(user)->client->group_key();
    if (!key.has_value() || !(*key == group_key)) ++stale;
  }
  report.check(stale == 0, std::to_string(stale) +
                               " live clients do not hold the server's group key");
  std::size_t leaked = 0;
  for (const UserId user : generator.departed()) {
    const kg::SymmetricKey* key =
        fleet->by_user.at(user)->client->find_key(server.root_id());
    if (key != nullptr && *key == group_key) ++leaked;
  }
  report.check(leaked == 0, std::to_string(leaked) +
                                " departed clients hold the current group key");
  report.metric("peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace keybench
