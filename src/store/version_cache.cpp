#include "store/version_cache.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/checksum.hpp"
#include "core/io.hpp"
#include "store/record_log.hpp"

namespace ipd {

namespace {

void count(StoreMetrics* metrics,
           obs::Counter StoreMetrics::* counter,
           std::uint64_t n = 1) noexcept {
  if (metrics != nullptr) (metrics->*counter).add(n);
}

/// Parse "<crc08x>-<len016x>.body" back into a ContentKey.
std::optional<ContentKey> key_from_name(const std::string& name) {
  std::uint32_t crc = 0;
  std::uint64_t length = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "%8" SCNx32 "-%16" SCNx64 ".bod%c", &crc,
                  &length, &tail) != 3 ||
      tail != 'y') {
    return std::nullopt;
  }
  return ContentKey{crc, length};
}

}  // namespace

VersionDiskCache::VersionDiskCache(std::filesystem::path dir,
                                   std::uint64_t byte_budget,
                                   StoreMetrics* metrics)
    : dir_(std::move(dir)), budget_(byte_budget), metrics_(metrics) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw StoreError("store cache: cannot create " + dir_.string() + ": " +
                     ec.message());
  }
  // Re-index survivors from a previous run. Arrival order is arbitrary
  // (LRU history did not survive), which only costs eviction accuracy.
  // The lock covers the whole scan: nothing else can see a half-built
  // object, but guarded fields are written under their mutex everywhere
  // — a constructor is not an excuse the analysis has to take on faith.
  MutexLock lock(mutex_);
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto key = key_from_name(entry.path().filename().string());
    if (!key) continue;
    const std::uint64_t size = entry.file_size(ec);
    if (ec) continue;
    lru_.push_back(Entry{*key, size});
    index_[*key] = std::prev(lru_.end());
    bytes_ += size;
  }
  evict_to_fit_locked(0);
}

std::filesystem::path VersionDiskCache::file_for(
    const ContentKey& key) const {
  char name[40];
  std::snprintf(name, sizeof name, "%08x-%016llx.body", key.crc,
                static_cast<unsigned long long>(key.length));
  return dir_ / name;
}

std::optional<Bytes> VersionDiskCache::get(const ContentKey& key) {
  {
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      count(metrics_, &StoreMetrics::disk_cache_misses);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
  }
  Bytes body;
  try {
    body = read_file(file_for(key));
  } catch (const IoError&) {
    body.clear();
  }
  if (body.size() != key.length || crc32c(body) != key.crc) {
    // Corrupt / truncated soft state: drop the file, report a miss.
    MutexLock lock(mutex_);
    erase_locked(key);
    count(metrics_, &StoreMetrics::disk_cache_misses);
    return std::nullopt;
  }
  count(metrics_, &StoreMetrics::disk_cache_hits);
  return body;
}

void VersionDiskCache::put(const ContentKey& key, ByteView body) {
  if (body.size() > budget_) return;
  MutexLock lock(mutex_);
  if (index_.contains(key)) return;  // immutable content, already cached
  evict_to_fit_locked(body.size());
  const std::filesystem::path target = file_for(key);
  // Write-then-rename so a crash mid-write leaves no half file under a
  // valid cache name (the name IS the validation contract).
  const std::filesystem::path tmp = target.string() + ".tmp";
  try {
    write_file(tmp, body);
  } catch (const IoError&) {
    return;  // cache writes are best-effort
  }
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  lru_.push_front(Entry{key, body.size()});
  index_[key] = lru_.begin();
  bytes_ += body.size();
}

void VersionDiskCache::clear() {
  MutexLock lock(mutex_);
  while (!lru_.empty()) {
    erase_locked(lru_.back().key);
  }
}

VersionDiskCache::Stats VersionDiskCache::stats() const {
  MutexLock lock(mutex_);
  return Stats{bytes_, index_.size()};
}

void VersionDiskCache::evict_to_fit_locked(std::uint64_t incoming) {
  while (!lru_.empty() && bytes_ + incoming > budget_) {
    count(metrics_, &StoreMetrics::disk_cache_evictions);
    erase_locked(lru_.back().key);
  }
}

void VersionDiskCache::erase_locked(const ContentKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  std::error_code ec;
  std::filesystem::remove(file_for(key), ec);
}

}  // namespace ipd
