#include "server/delta_cache.hpp"

#include <bit>
#include <iterator>

#include "obs/event_ring.hpp"
#include "verify/verifier.hpp"

namespace ipd {

DeltaCache::DeltaCache(std::uint64_t byte_budget, std::size_t shards,
                       ServiceMetrics* metrics, const Verifier* gate)
    : budget_(byte_budget), metrics_(metrics), gate_(gate) {
  if (byte_budget == 0) {
    throw ValidationError("delta cache: byte budget must be positive");
  }
  const std::size_t count = std::bit_ceil(shards == 0 ? 1 : shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Ceil-divide so the slices always sum to >= the requested budget.
  shard_budget_ = (budget_ + count - 1) / count;
}

DeltaCache::Shard& DeltaCache::shard_for(const DeltaKey& key) noexcept {
  return *shards_[DeltaKeyHash{}(key) & (shards_.size() - 1)];
}

std::shared_ptr<const Bytes> DeltaCache::get(const DeltaKey& key) {
  Shard& shard = shard_for(key);
  std::shared_ptr<const Bytes> value;
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      // Test before set: a hot entry's repeat hits stay read-only.
      if (!entry.referenced) entry.referenced = true;
      value = entry.value;
    }
  }
  if (metrics_ != nullptr) {
    (value ? metrics_->cache_hits : metrics_->cache_misses).add();
  }
  return value;
}

bool DeltaCache::put(const DeltaKey& key,
                     std::shared_ptr<const Bytes> value) {
  const std::uint64_t size = value->size();
  Shard& shard = shard_for(key);
  if (gate_ != nullptr) {
    // Verify outside the shard lock — the check is O(n log n) in the
    // command count and must not stall unrelated lookups.
    const Report report = gate_->check(ByteView(*value));
    if (!report.ok()) {
      {
        MutexLock lock(shard.mutex);
        ++shard.rejected_unsafe;
      }
      if (metrics_ != nullptr) {
        metrics_->verify_rejects.add();
      }
      return false;
    }
    if (metrics_ != nullptr && report.warning_count() > 0) {
      metrics_->verify_warns.add(report.warning_count());
    }
  }
  std::uint64_t evicted = 0;
  bool rejected = false;
  {
    MutexLock lock(shard.mutex);
    if (size > shard_budget_) {
      ++shard.rejected;
      rejected = true;
    } else {
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->value->size();
        it->second->value = std::move(value);
        shard.ring.splice(shard.ring.begin(), shard.ring, it->second);
      } else {
        shard.ring.push_front(Entry{key, std::move(value)});
        it = shard.index.emplace(key, shard.ring.begin()).first;
      }
      shard.bytes += size;
      const Entry* const inserted = &*it->second;
      // The sweep ends: one lap clears every reference bit, and the
      // inserted entry alone fits (size <= shard_budget_), so after that
      // each step evicts until the budget holds.
      while (shard.bytes > shard_budget_) {
        Entry& victim = shard.ring.back();
        if (&victim == inserted || victim.referenced) {
          victim.referenced = false;
          shard.ring.splice(shard.ring.begin(), shard.ring,
                            std::prev(shard.ring.end()));
          continue;
        }
        shard.bytes -= victim.value->size();
        shard.index.erase(victim.key);
        shard.ring.pop_back();
        ++shard.evictions;
        ++evicted;
      }
    }
  }
  if (metrics_ != nullptr) {
    if (evicted > 0) {
      metrics_->evictions.add(evicted);
    }
    if (rejected) {
      metrics_->rejected_inserts.add();
    }
  }
  if (evicted > 0) {
    obs::global_events().push(obs::EventType::kCacheEvict, evicted, size);
  }
  return !rejected;
}

DeltaCache::Stats DeltaCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.bytes_held += shard->bytes;
    total.entries += shard->ring.size();
    total.evictions += shard->evictions;
    total.rejected += shard->rejected;
    total.rejected_unsafe += shard->rejected_unsafe;
  }
  return total;
}

}  // namespace ipd
