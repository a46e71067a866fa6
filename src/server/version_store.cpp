#include "server/version_store.hpp"

#include <bit>
#include <string>

#include "core/checksum.hpp"

namespace ipd {

namespace {

struct SlotPos {
  std::size_t chunk;
  std::size_t offset;
};

/// Chunk k covers ids [F * (2^k - 1), F * (2^(k+1) - 1)), F = first chunk.
constexpr SlotPos slot_pos(std::size_t id, std::size_t first) noexcept {
  const auto chunk =
      static_cast<std::size_t>(std::bit_width(id / first + 1)) - 1;
  return {chunk, id - first * ((std::size_t{1} << chunk) - 1)};
}

static_assert(slot_pos(0, 64).chunk == 0 && slot_pos(63, 64).offset == 63);
static_assert(slot_pos(64, 64).chunk == 1 && slot_pos(64, 64).offset == 0);
static_assert(slot_pos(191, 64).chunk == 1 && slot_pos(192, 64).chunk == 2);
static_assert(slot_pos(0xFFFFFFFFu, 64).chunk == 26);

}  // namespace

ReleaseId VersionStore::publish(Bytes body) {
  const ContentKey key{crc32c(body), body.size()};
  auto shared = std::make_shared<const Bytes>(std::move(body));
  WriterLock lock(mutex_);
  const std::size_t count = count_.load(std::memory_order_relaxed);
  const SlotPos pos = slot_pos(count, kFirstChunk);
  std::unique_ptr<Slot[]>& chunk = chunks_[pos.chunk];
  if (!chunk) chunk = std::make_unique<Slot[]>(kFirstChunk << pos.chunk);
  chunk[pos.offset] = Slot{std::move(shared), key};
  const auto id = static_cast<ReleaseId>(count);
  if (by_content_.contains(key)) count_duplicate_publish();
  by_content_[key] = id;  // newer release wins the content address
  count_.store(count + 1, std::memory_order_release);
  return id;
}

const VersionStore::Slot& VersionStore::published(ReleaseId id) const {
  if (id >= count_.load(std::memory_order_acquire)) {
    throw ValidationError("version store: no release " + std::to_string(id));
  }
  const SlotPos pos = slot_pos(id, kFirstChunk);
  return chunks_[pos.chunk][pos.offset];
}

std::size_t VersionStore::release_count() const {
  return count_.load(std::memory_order_acquire);
}

std::shared_ptr<const Bytes> VersionStore::body(ReleaseId id) const {
  return published(id).body;
}

ContentKey VersionStore::content_key(ReleaseId id) const {
  return published(id).key;
}

std::optional<ReleaseId> VersionStore::find(const ContentKey& key) const {
  ReaderLock lock(mutex_);
  const auto it = by_content_.find(key);
  if (it == by_content_.end()) return std::nullopt;
  return it->second;
}

ReleaseId VersionStore::latest() const {
  const std::size_t count = count_.load(std::memory_order_acquire);
  if (count == 0) {
    throw ValidationError("version store: empty history has no latest");
  }
  return static_cast<ReleaseId>(count - 1);
}

}  // namespace ipd
