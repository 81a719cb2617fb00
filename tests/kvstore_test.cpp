// Tests for the KV store substrate: semantics, concurrency, latency
// injection bounds, and a seeded differential of the flat shard table
// against a std::map reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "kvstore/kvstore.h"

namespace sb {
namespace {

KvStoreOptions fast_options() {
  KvStoreOptions options;
  options.inject_latency = false;
  return options;
}

/// "k<t>:<i>", built by appending: gcc 12 at -O3 misreports
/// `"k" + std::to_string(t)` as an overlapping copy (GCC bug 105651).
std::string thread_key(std::size_t t, std::size_t i) {
  std::string key = "k";
  key += std::to_string(t);
  key += ':';
  key += std::to_string(i);
  return key;
}

TEST(KvStoreTest, SetGetEraseSemantics) {
  KvStore store(fast_options());
  EXPECT_FALSE(store.get("missing").has_value());
  store.set("a", "1");
  EXPECT_EQ(store.get("a"), "1");
  store.set("a", "2");
  EXPECT_EQ(store.get("a"), "2");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.erase("a"));
  EXPECT_FALSE(store.erase("a"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(KvStoreTest, IncrStartsAtZero) {
  KvStore store(fast_options());
  EXPECT_EQ(store.incr("counter", 5), 5);
  EXPECT_EQ(store.incr("counter", -2), 3);
  EXPECT_EQ(store.get("counter"), "3");
}

TEST(KvStoreTest, ConcurrentIncrementsAreAtomic) {
  KvStore store(fast_options());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kOpsPerThread; ++i) store.incr("shared", 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.get("shared"), std::to_string(kThreads * kOpsPerThread));
}

TEST(KvStoreTest, ConcurrentDisjointWrites) {
  KvStore store(fast_options());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 6; ++t) {
    threads.emplace_back([&store, t] {
      for (std::size_t i = 0; i < 200; ++i) {
        store.set(thread_key(t, i), std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.size(), 1200u);
  EXPECT_EQ(store.get("k3:77"), "77");
}

TEST(KvStoreTest, InjectedLatencyWithinPaperRange) {
#ifndef SB_METRICS_ENABLED
  GTEST_SKIP() << "op stats ride on sb::obs; built with SB_METRICS=OFF";
#else
  KvStoreOptions options;
  options.min_latency_ms = 0.3;
  options.max_latency_ms = 4.2;
  KvStore store(options);
  for (int i = 0; i < 30; ++i) store.set("k", "v");
  const KvStore::OpStats stats = store.stats();
  EXPECT_EQ(stats.ops, 30u);
  // §6.6 reports write latencies of 0.3-4.2 ms.
  EXPECT_GE(stats.min_latency_ms, 0.3);
  EXPECT_LE(stats.max_latency_ms, 4.2);
  EXPECT_GT(stats.mean_latency_ms(), 0.3);

  // The OpStats view is a projection of the per-instance histogram; its
  // percentiles must sit inside the injected range too.
  const obs::HistogramData histogram = store.latency_histogram();
  EXPECT_EQ(histogram.count, 30u);
  EXPECT_GE(histogram.p50() * 1e3, 0.3);
  EXPECT_LE(histogram.p99() * 1e3, 4.2);

  store.reset_stats();
  EXPECT_EQ(store.stats().ops, 0u);
  EXPECT_EQ(store.latency_histogram().count, 0u);
#endif
}

TEST(KvStoreTest, VersionedPutIfSemantics) {
  KvStore store(fast_options());
  // Create-if-absent: expected version 0 on a missing key.
  const auto v1 = store.put_if("k", "a", 0);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 1u);
  // Create-if-absent on an existing key must fail.
  EXPECT_FALSE(store.put_if("k", "clobber", 0).has_value());
  EXPECT_EQ(store.get("k"), "a");
  // CAS with the right version succeeds and bumps it.
  const auto v2 = store.put_if("k", "b", *v1);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, 2u);
  // Stale CAS (old version) must fail and leave the value alone.
  EXPECT_FALSE(store.put_if("k", "stale", *v1).has_value());
  EXPECT_EQ(store.get("k"), "b");
  // Plain set() bumps the version too, so a CAS racing a set loses.
  store.set("k", "c");
  const auto ver = store.get_versioned("k");
  ASSERT_TRUE(ver.has_value());
  EXPECT_EQ(ver->value, "c");
  EXPECT_EQ(ver->version, 3u);
  EXPECT_FALSE(store.put_if("k", "stale", *v2).has_value());
}

TEST(KvStoreTest, PutIfContentionEightThreads) {
  // Eight threads CAS-loop the same key; every successful CAS appends one
  // token. Success count and final version must equal the token total —
  // no lost or duplicated CAS under contention.
  KvStore store(fast_options());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kWinsPerThread = 100;
  ASSERT_TRUE(store.put_if("ctr", "0", 0).has_value());
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store] {
      for (std::size_t w = 0; w < kWinsPerThread;) {
        const auto cur = store.get_versioned("ctr");
        if (!cur.has_value()) continue;  // never happens; keep gtest
                                         // asserts off worker threads
        const auto next = std::to_string(std::stoull(cur->value) + 1);
        if (store.put_if("ctr", next, cur->version).has_value()) ++w;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const auto settled = store.get_versioned("ctr");
  ASSERT_TRUE(settled.has_value());
  EXPECT_EQ(settled->value, std::to_string(kThreads * kWinsPerThread));
  EXPECT_EQ(settled->version, 1u + kThreads * kWinsPerThread);
}

TEST(KvStoreTest, ScanPrefixIsSortedAndScoped) {
  KvStore store(fast_options());
  store.set("wal:3:10", "c");
  store.set("wal:3:2", "b");
  store.set("wal:12:1", "x");
  store.set("lease:w0", "y");
  const auto rows = store.scan_prefix("wal:3:");
  ASSERT_EQ(rows.size(), 2u);
  // Lexicographic over the full key, deterministic across shard layouts.
  EXPECT_EQ(rows[0].first, "wal:3:10");
  EXPECT_EQ(rows[1].first, "wal:3:2");
  EXPECT_EQ(rows[0].second, "c");
  EXPECT_TRUE(store.scan_prefix("wal:7:").empty());
}

// Seeded differential of the flat shard table against a std::map: random
// set / erase / put_if / incr / get_versioned / scan_prefix over keys that
// share long prefixes. Fill phases climb the live set through several table
// growths; drain phases erase runs of consecutive keys (long backward-shift
// chains) until the table is nearly empty. After every operation the
// store's contents, versions, size() and full-scan order must equal the
// reference. One shard puts every key in one table; five spread them.
TEST(KvStoreTest, FlatTableMatchesMapReference) {
  struct Ref {
    std::string value;
    std::uint64_t version = 0;
  };
  constexpr std::uint64_t kUniverse = 512;
  constexpr std::uint64_t kCounters = 16;  // the last ids are incr-only keys
  constexpr int kSteps = 4800;
  constexpr int kPhaseSteps = 1200;
  const auto key_of = [](std::uint64_t n) {
    std::string key = "wal:";
    key += std::to_string(n % 3);
    key += ':';
    key += std::to_string(n);
    return key;
  };
  const std::vector<std::string> prefixes = {"", "wal:", "wal:1:", "wal:2:1",
                                             "wal:0:3", "lease:"};

  for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    KvStoreOptions options = fast_options();
    options.shard_count = shards;
    KvStore store(options);
    std::map<std::string, Ref> ref;
    Rng rng(0x7ab1e0 + shards);
    std::size_t peak = 0;
    std::size_t drained_to = kUniverse;
    bool draining = false;

    const auto check_all = [&]() {
      ASSERT_EQ(store.size(), ref.size());
      const auto rows = store.scan_prefix("");
      ASSERT_EQ(rows.size(), ref.size());
      std::size_t i = 0;
      for (const auto& [key, r] : ref) {
        ASSERT_EQ(rows[i].first, key);
        ASSERT_EQ(rows[i].second, r.value);
        const auto got = store.get_versioned(key);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->version, r.version) << key;
        ++i;
      }
      peak = std::max(peak, ref.size());
      if (draining) drained_to = std::min(drained_to, ref.size());
    };

    for (int step = 0; step < kSteps; ++step) {
      draining = (step / kPhaseSteps) % 2 == 1;
      const std::uint64_t n = rng.uniform_index(kUniverse);
      const std::string key = key_of(n);
      const double u = rng.uniform();
      if (n >= kUniverse - kCounters) {
        // Counter keys: only incr and erase touch them, so values parse.
        if (u < 0.7) {
          const auto delta = rng.uniform_int(-50, 50);
          Ref& r = ref[key];
          const std::int64_t want =
              (r.value.empty() ? 0 : std::stoll(r.value)) + delta;
          r.value = std::to_string(want);
          ++r.version;
          ASSERT_EQ(store.incr(key, delta), want);
        } else {
          ASSERT_EQ(store.erase(key), ref.erase(key) == 1);
        }
      } else if (draining ? u < 0.8 : u < 0.1) {
        // A run of erases over consecutive ids (present or not).
        const std::uint64_t run = 1 + rng.uniform_index(draining ? 40 : 4);
        for (std::uint64_t k = n; k < std::min(n + run, kUniverse); ++k) {
          const std::string victim = key_of(k);
          ASSERT_EQ(store.erase(victim), ref.erase(victim) == 1);
          ASSERT_NO_FATAL_FAILURE(check_all());
        }
      } else if (u < 0.55) {
        // Values from empty to well past the inline-string size, so
        // in-place overwrites both grow and shrink.
        std::string value(rng.uniform_index(120), static_cast<char>(
                                                      'a' + step % 26));
        value += std::to_string(step);
        store.set(key, value);
        Ref& r = ref[key];
        r.value = value;
        ++r.version;
      } else if (u < 0.8) {
        const auto it = ref.find(key);
        const std::uint64_t current = it == ref.end() ? 0 : it->second.version;
        // Half right, half stale (or create-only on a present key).
        const std::uint64_t expected =
            rng.uniform() < 0.5 ? current : (current == 0 ? 1 : current - 1);
        const std::string value = "cas" + std::to_string(step);
        const auto got = store.put_if(key, value, expected);
        if (expected == current) {
          Ref& r = ref[key];
          r.value = value;
          ++r.version;
          ASSERT_TRUE(got.has_value());
          ASSERT_EQ(*got, r.version);
        } else {
          ASSERT_FALSE(got.has_value());
        }
      } else if (u < 0.9) {
        const auto got = store.get_versioned(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got) {
          ASSERT_EQ(got->value, it->second.value);
          ASSERT_EQ(got->version, it->second.version);
        }
        ASSERT_EQ(store.get(key).has_value(), it != ref.end());
      } else {
        const std::string& prefix =
            prefixes[rng.uniform_index(prefixes.size())];
        std::vector<std::pair<std::string, std::string>> want;
        for (const auto& [k, r] : ref) {
          if (k.starts_with(prefix)) want.emplace_back(k, r.value);
        }
        ASSERT_EQ(store.scan_prefix(prefix), want) << prefix;
      }
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
    // The schedule really grew the table several times and drained it.
    EXPECT_GT(peak, kUniverse / 2);
    EXPECT_LT(drained_to, kUniverse / 10);
  }
}

TEST(KvStoreTest, LeaseLifecycle) {
  KvStore store(fast_options());
  // Grant, then a competing owner is refused until expiry.
  EXPECT_TRUE(store.acquire_lease("L", "w0", 10.0, 0.0));
  EXPECT_FALSE(store.acquire_lease("L", "w1", 10.0, 5.0));
  // Re-acquire by the same owner refreshes rather than conflicts.
  EXPECT_TRUE(store.acquire_lease("L", "w0", 10.0, 5.0));
  const auto info = store.lease("L");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner, "w0");
  EXPECT_DOUBLE_EQ(info->expires_at, 15.0);
  // Renewal works while live, fails once lapsed.
  EXPECT_TRUE(store.renew_lease("L", "w0", 10.0, 14.0));
  EXPECT_FALSE(store.renew_lease("L", "w1", 10.0, 14.0));  // wrong owner
  EXPECT_FALSE(store.renew_lease("L", "w0", 10.0, 99.0));  // lapsed
  // A lapsed lease is up for grabs.
  EXPECT_TRUE(store.acquire_lease("L", "w1", 10.0, 99.0));
  EXPECT_TRUE(store.release_lease("L", "w1"));
  EXPECT_FALSE(store.release_lease("L", "w1"));
  EXPECT_FALSE(store.lease("L").has_value());
}

TEST(KvStoreTest, ExpireLeasesSweepsOnlyLapsed) {
  KvStore store(fast_options());
  EXPECT_TRUE(store.acquire_lease("a", "w0", 5.0, 0.0));
  EXPECT_TRUE(store.acquire_lease("b", "w1", 50.0, 0.0));
  EXPECT_TRUE(store.acquire_lease("c", "w2", 5.0, 0.0));
  const auto expired = store.expire_leases(10.0);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0], "a");  // sorted sweep: deterministic adoption order
  EXPECT_EQ(expired[1], "c");
  EXPECT_FALSE(store.lease("a").has_value());
  ASSERT_TRUE(store.lease("b").has_value());
  EXPECT_TRUE(store.expire_leases(10.0).empty());  // idempotent
}

TEST(KvStoreTest, ValidatesOptions) {
  KvStoreOptions bad;
  bad.shard_count = 0;
  EXPECT_THROW(KvStore{bad}, InvalidArgument);
  KvStoreOptions bad_range;
  bad_range.min_latency_ms = 5.0;
  bad_range.max_latency_ms = 1.0;
  EXPECT_THROW(KvStore{bad_range}, InvalidArgument);
}

// Eight threads hammer disjoint-but-overlapping key ranges with a mix of
// set/get/incr/erase while latency injection is ON (the concurrent path the
// controller drives). Afterwards the op-stats projection and the latency
// histogram must agree on exactly how many operations ran — no sample lost
// or double-counted under contention — and the store must hold exactly the
// keys the deterministic op schedule leaves behind.
TEST(KvStoreTest, MixedStressConservesOpStatsHistogram) {
  KvStoreOptions options;
  options.inject_latency = true;
  options.min_latency_ms = 0.005;  // keep the stress fast but on the
  options.max_latency_ms = 0.05;   // injected-latency code path
  KvStore store(options);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::string key = thread_key(t, i % 8);
        switch (i % 4) {
          case 0:
            store.set(key, std::to_string(i));
            break;
          case 1:
            (void)store.get(key);
            break;
          case 2:
            (void)store.incr("ctr:" + std::to_string(t), 1);
            break;
          default:
            (void)store.erase(key);
            break;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

#ifdef SB_METRICS_ENABLED
  // Snapshot the stats BEFORE the semantic checks below: incr() (even with
  // delta 0) rides the same instrumented path and would add samples.
  const KvStore::OpStats stats = store.stats();
  const obs::HistogramData histogram = store.latency_histogram();
#endif

  // Per-thread schedule: i%4==0 sets k<t>:<i%8> (i%8 in {0,4}), i%4==3
  // erases (i%8 in {3,7}) — disjoint, so both set keys survive, plus one
  // counter key per thread.
  EXPECT_EQ(store.size(), kThreads * 3);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.incr("ctr:" + std::to_string(t), 0),
              static_cast<std::int64_t>(kOpsPerThread / 4));
  }

#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(stats.ops, kThreads * kOpsPerThread);
  EXPECT_EQ(histogram.count, kThreads * kOpsPerThread);
  // Histogram conservation: bucket counts (including both overflow
  // buckets) sum exactly to the observation count.
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : histogram.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, histogram.count);
  EXPECT_GE(stats.min_latency_ms, options.min_latency_ms);
  EXPECT_LE(stats.max_latency_ms, options.max_latency_ms);
  EXPECT_NEAR(histogram.sum * 1e3, stats.total_latency_ms,
              1e-6 * stats.total_latency_ms);
#endif
}

}  // namespace
}  // namespace sb
