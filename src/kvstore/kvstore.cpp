#include "kvstore/kvstore.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace sb {

namespace {

/// Table sizing: power-of-two capacities from 16, doubled when an insert
/// would push the load past 3/4.
constexpr std::size_t kMinTableCapacity = 16;
constexpr std::size_t kMaxLoadNum = 3;
constexpr std::size_t kMaxLoadDen = 4;

/// Latency samples are seconds; the paper's write range is 0.3-4.2 ms, so
/// [10 us, 1 s) with ~13 buckets/decade resolves it comfortably.
obs::HistogramOptions latency_histogram_options() {
  return {.min = 1e-5, .max = 1.0, .bucket_count = 64};
}

}  // namespace

KvStore::KvStore(KvStoreOptions options)
    : options_(options),
      shards_(options.shard_count),
      latency_(latency_histogram_options()),
      ops_metric_(obs::MetricsRegistry::global().counter("sb.kvstore.ops")),
      latency_metric_(obs::MetricsRegistry::global().histogram(
          "sb.kvstore.op_latency_s", latency_histogram_options())) {
  require(options_.shard_count > 0, "KvStore: need at least one shard");
  require(options_.min_latency_ms > 0.0 &&
              options_.max_latency_ms >= options_.min_latency_ms,
          "KvStore: bad latency range");
}

KvStore::Table::Table() { rehash(kMinTableCapacity); }

std::size_t KvStore::Table::home_of(std::uint32_t tag) const {
  // Fibonacci hashing: the tag's bits spread over the top of the product.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(tag) * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t KvStore::Table::index_of(std::uint32_t tag,
                                     std::string_view key) const {
  for (std::size_t i = home_of(tag);; i = (i + 1) & mask_) {
    if (tags_[i] == 0) return npos;
    if (tags_[i] == tag && slots_[i].key == key) return i;
  }
}

KvStore::Table::Slot* KvStore::Table::find(std::uint32_t tag,
                                           std::string_view key) {
  const std::size_t i = index_of(tag, key);
  return i == npos ? nullptr : &slots_[i];
}

const KvStore::Table::Slot* KvStore::Table::find(std::uint32_t tag,
                                                 std::string_view key) const {
  const std::size_t i = index_of(tag, key);
  return i == npos ? nullptr : &slots_[i];
}

KvStore::Table::Slot& KvStore::Table::find_or_insert(std::uint32_t tag,
                                                     std::string_view key) {
  if (Slot* found = find(tag, key)) return *found;
  if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
    rehash(slots_.size() * 2);
  }
  std::size_t i = home_of(tag);
  while (tags_[i] != 0) i = (i + 1) & mask_;
  tags_[i] = tag;
  slots_[i].key.assign(key);
  ++size_;
  return slots_[i];
}

bool KvStore::Table::erase(std::uint32_t tag, std::string_view key) {
  std::size_t hole = index_of(tag, key);
  if (hole == npos) return false;
  for (std::size_t probe = (hole + 1) & mask_; tags_[probe] != 0;
       probe = (probe + 1) & mask_) {
    // The entry at `probe` may fill `hole` iff its home precedes or equals
    // the hole along the cyclic probe path ending at `probe`.
    const std::size_t home = home_of(tags_[probe]);
    if (((probe - home) & mask_) >= ((probe - hole) & mask_)) {
      tags_[hole] = tags_[probe];
      slots_[hole] = std::move(slots_[probe]);
      hole = probe;
    }
  }
  // A moved-from or assigned-over string keeps its heap buffer; swap in
  // fresh ones so an emptied slot holds no memory.
  tags_[hole] = 0;
  std::string().swap(slots_[hole].key);
  std::string().swap(slots_[hole].value);
  slots_[hole].version = 0;
  --size_;
  return true;
}

void KvStore::Table::rehash(std::size_t capacity) {
  const std::vector<std::uint32_t> old_tags =
      std::exchange(tags_, std::vector<std::uint32_t>(capacity, 0));
  std::vector<Slot> old_slots =
      std::exchange(slots_, std::vector<Slot>(capacity));
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::size_t i = 0; i < old_slots.size(); ++i) {
    if (old_tags[i] == 0) continue;
    std::size_t j = home_of(old_tags[i]);
    while (tags_[j] != 0) j = (j + 1) & mask_;
    tags_[j] = old_tags[i];
    slots_[j] = std::move(old_slots[i]);
  }
}

KvStore::Hashed KvStore::locate(std::string_view key) const {
  const auto h = static_cast<std::uint64_t>(std::hash<std::string_view>{}(key));
  return {shards_[h % shards_.size()],
          static_cast<std::uint32_t>(h >> 32) | 1u};
}

void KvStore::simulate_network() const {
  if (!options_.inject_latency) return;
  // Per-thread generator so concurrent clients draw independent latencies.
  thread_local Rng rng(options_.seed ^
                       std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const double ratio = options_.max_latency_ms / options_.min_latency_ms;
  const double latency_ms =
      options_.min_latency_ms * std::pow(ratio, rng.uniform());
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      latency_ms));
  const double latency_s = latency_ms / 1e3;
  latency_.record(latency_s);
  latency_metric_.record(latency_s);
  ops_metric_.inc();
}

void KvStore::set(std::string_view key, std::string_view value) {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  Table::Slot& slot = at.shard.table.find_or_insert(at.tag, key);
  slot.value.assign(value);
  ++slot.version;
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  const Table::Slot* slot = at.shard.table.find(at.tag, key);
  if (slot == nullptr) return std::nullopt;
  return slot->value;
}

std::int64_t KvStore::incr(std::string_view key, std::int64_t delta) {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  Table::Slot& slot = at.shard.table.find_or_insert(at.tag, key);
  std::int64_t current = 0;
  if (!slot.value.empty()) current = std::stoll(slot.value);
  current += delta;
  slot.value = std::to_string(current);
  ++slot.version;
  return current;
}

std::optional<KvStore::Versioned> KvStore::get_versioned(
    std::string_view key) const {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  const Table::Slot* slot = at.shard.table.find(at.tag, key);
  if (slot == nullptr) return std::nullopt;
  return Versioned{slot->value, slot->version};
}

std::optional<std::uint64_t> KvStore::put_if(std::string_view key,
                                             std::string_view value,
                                             std::uint64_t expected_version) {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  Table::Slot* slot = at.shard.table.find(at.tag, key);
  const std::uint64_t current = slot == nullptr ? 0 : slot->version;
  if (current != expected_version) return std::nullopt;
  if (slot == nullptr) slot = &at.shard.table.find_or_insert(at.tag, key);
  slot->value.assign(value);
  ++slot->version;
  return slot->version;
}

std::vector<std::pair<std::string, std::string>> KvStore::scan_prefix(
    std::string_view prefix) const {
  simulate_network();
  std::vector<std::pair<std::string, std::string>> out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.table.for_each([&](const Table::Slot& slot) {
      if (slot.key.starts_with(prefix)) out.emplace_back(slot.key, slot.value);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool KvStore::acquire_lease(const std::string& key, const std::string& owner,
                            double ttl_s, double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  auto it = leases_.find(key);
  if (it != leases_.end() && it->second.owner != owner &&
      it->second.expires_at > now) {
    return false;  // live and held by someone else
  }
  LeaseInfo& info = leases_[key];
  const std::uint64_t version = info.version;
  info = LeaseInfo{owner, now + ttl_s, version + 1};
  return true;
}

bool KvStore::renew_lease(const std::string& key, const std::string& owner,
                          double ttl_s, double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end() || it->second.owner != owner ||
      it->second.expires_at <= now) {
    return false;
  }
  it->second.expires_at = now + ttl_s;
  ++it->second.version;
  return true;
}

bool KvStore::release_lease(const std::string& key, const std::string& owner) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end() || it->second.owner != owner) return false;
  leases_.erase(it);
  return true;
}

std::optional<KvStore::LeaseInfo> KvStore::lease(
    const std::string& key) const {
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> KvStore::expire_leases(double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  std::vector<std::string> expired;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      expired.push_back(it->first);
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(expired.begin(), expired.end());
  return expired;
}

bool KvStore::erase(std::string_view key) {
  simulate_network();
  const Hashed at = locate(key);
  std::lock_guard lock(at.shard.mutex);
  return at.shard.table.erase(at.tag, key);
}

std::size_t KvStore::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.table.size();
  }
  return total;
}

KvStore::OpStats KvStore::stats() const {
  const obs::HistogramData data = latency_.collect();
  OpStats stats;
  stats.ops = data.count;
  stats.total_latency_ms = data.sum * 1e3;
  stats.min_latency_ms = data.min * 1e3;
  stats.max_latency_ms = data.max * 1e3;
  return stats;
}

void KvStore::reset_stats() { latency_.reset(); }

}  // namespace sb
