// Ablation — key-tree storage: copy-on-write pages + epoch views.
//
// Three questions:
//   1. Publish cost. Every join publishes a view that shares all unchanged
//      pages with the live tree, so a join should cost O(d log n) page
//      copies, not a copy of all n nodes. Measured as join+publish time and
//      the bytes one join newly allocates (the cloned pages, the view's
//      page tables and the JoinRecord), at n = 2^10..KG_TREE_MAX.
//   2. Traversal cost on a view: users_under(root) scans the slot pages in
//      order and sorts; keyset(u) is an id-index probe plus a parent walk.
//   3. Reader throughput under a concurrent writer. Readers acquire the
//      current immutable view (RCU shared_ptr swap) and never lock, so a
//      churning writer should not dent read throughput beyond core
//      contention. Measured with the writer idle vs. churning.
//
//   KG_TREE_MAX     largest member count (default 2^20)
//   KG_TRAVERSALS   measured traversals per size (default 20)
//   KG_READ_MS      per-phase reader window, milliseconds (default 300)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "keygraph/key_tree.h"

namespace {

// Bytes requested from operator new since start-up. This binary replaces
// the global allocation functions below so a join's allocations can be
// counted without an allocator hook in the library.
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace keygraphs {
namespace {

constexpr std::size_t kPublishOps = 256;

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void grow_to(KeyTree& tree, UserId first, UserId last) {
  std::vector<std::pair<UserId, Bytes>> joins;
  for (UserId u = first; u <= last; ++u) {
    joins.emplace_back(u, Bytes(16, static_cast<std::uint8_t>(u * 37 + 1)));
    if (joins.size() == 2048 || u == last) {
      tree.batch_update(joins, {});
      joins.clear();
    }
  }
}

/// kPublishOps rounds of (join a fresh user, leave the oldest member) at a
/// steady size n; only the joins are timed and counted.
void publish_point(KeyTree& tree, std::size_t n) {
  std::vector<double> join_us;
  std::uint64_t bytes = 0;
  UserId next = static_cast<UserId>(n) + 1;
  UserId oldest = 1;
  for (std::size_t i = 0; i < kPublishOps; ++i) {
    const UserId u = next++;
    Bytes key(16, static_cast<std::uint8_t>(u));
    const std::uint64_t allocated_before =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    (void)tree.join(u, std::move(key));
    join_us.push_back(us_since(start));
    bytes += g_allocated_bytes.load(std::memory_order_relaxed) -
             allocated_before;
    tree.leave(oldest++);
  }
  std::sort(join_us.begin(), join_us.end());
  double mean = 0.0;
  for (double us : join_us) mean += us;
  mean /= static_cast<double>(join_us.size());

  char json[320];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"tree_storage\",\"mode\":\"publish\",\"n\":%zu,"
                "\"ops\":%zu,\"join_publish_us_p50\":%.2f,"
                "\"join_publish_us_mean\":%.2f,"
                "\"alloc_bytes_per_publish\":%.0f}",
                n, kPublishOps, join_us[join_us.size() / 2], mean,
                static_cast<double>(bytes) / static_cast<double>(kPublishOps));
  bench::emit_json_line(json);
}

void traversal_point(const KeyTree& tree, std::size_t n,
                     std::size_t traversals) {
  const TreeViewPtr view = tree.view();
  const KeyId root = view->root_id();
  const std::vector<UserId> members = view->users();

  // users_under(root): full-membership resolution, the dispatch-path read.
  std::size_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < traversals; ++i) {
    sink += view->users_under(root).size();
  }
  const double scan_us = us_since(start) / static_cast<double>(traversals);

  // keyset(u): the per-user path walk (resync/welcome planning).
  const std::size_t probes = std::min<std::size_t>(members.size(), 512);
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < traversals; ++i) {
    for (std::size_t p = 0; p < probes; ++p) {
      sink += view->keyset(members[p * members.size() / probes]).size();
    }
  }
  const double keyset_us =
      us_since(start) / static_cast<double>(traversals * probes);
  const volatile std::size_t keep = sink;
  (void)keep;

  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"tree_storage\",\"mode\":\"traversal\",\"n\":%zu,"
                "\"users_under_root_us\":%.1f,\"keyset_us\":%.3f}",
                n, scan_us, keyset_us);
  bench::emit_json_line(json);
}

/// Reads completed in `window_ms`, with an optional concurrent writer
/// churning join/leave through the same tree.
void reader_throughput_point(std::size_t n, double window_ms) {
  crypto::SecureRandom rng(7002);
  KeyTree tree(4, 16, rng);
  grow_to(tree, 1, n);
  const KeyId root = tree.view()->root_id();

  const auto read_phase = [&](bool with_writer) -> std::uint64_t {
    std::atomic<bool> stop{false};
    std::thread writer;
    if (with_writer) {
      writer = std::thread([&tree, &stop, n] {
        UserId next = static_cast<UserId>(n) + 1;
        while (!stop.load(std::memory_order_acquire)) {
          const UserId u = next++;
          tree.join(u, Bytes(16, static_cast<std::uint8_t>(u)));
          tree.leave(u);
        }
      });
    }
    std::uint64_t reads = 0;
    std::size_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    while (us_since(start) < window_ms * 1000.0) {
      const TreeViewPtr view = tree.view();
      sink += view->users_under(root).size();
      ++reads;
    }
    const volatile std::size_t keep = sink;
    (void)keep;
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    return reads;
  };

  const std::uint64_t quiet = read_phase(false);
  const std::uint64_t contended = read_phase(true);
  char json[384];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"tree_storage\",\"mode\":\"reader_throughput\","
                "\"n\":%zu,\"window_ms\":%.0f,\"reads_quiet\":%llu,"
                "\"reads_with_writer\":%llu,\"retained_pct\":%.1f}",
                n, window_ms, static_cast<unsigned long long>(quiet),
                static_cast<unsigned long long>(contended),
                quiet > 0 ? 100.0 * static_cast<double>(contended) /
                                static_cast<double>(quiet)
                          : 0.0);
  bench::emit_json_line(json);
}

}  // namespace
}  // namespace keygraphs

int main() {
  using namespace keygraphs;
  const std::size_t max_n = bench::env_size("KG_TREE_MAX", 1u << 20);
  const std::size_t traversals =
      std::max<std::size_t>(1, bench::env_size("KG_TRAVERSALS", 20));
  const double window_ms =
      static_cast<double>(bench::env_size("KG_READ_MS", 300));
  bench::emit_header_json("ablation_tree_storage");
  for (std::size_t n = 1024; n <= max_n; n *= 4) {
    crypto::SecureRandom rng(7001);
    KeyTree tree(4, 16, rng);
    grow_to(tree, 1, n);
    traversal_point(tree, n, traversals);
    publish_point(tree, n);
  }
  reader_throughput_point(4096, window_ms);
  return 0;
}
