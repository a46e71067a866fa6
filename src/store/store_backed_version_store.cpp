#include "store/store_backed_version_store.hpp"

namespace ipd {

StoreBackedVersionStore::StoreBackedVersionStore(
    std::shared_ptr<ArtifactStore> store, std::uint64_t ram_budget)
    : store_(std::move(store)), ram_budget_(ram_budget) {
  if (!store_) {
    throw ValidationError("store adapter: null artifact store");
  }
}

ReleaseId StoreBackedVersionStore::publish(Bytes body) {
  const std::uint64_t before = store_->metrics().duplicate_publishes.load();
  auto shared = std::make_shared<const Bytes>(std::move(body));
  const ReleaseId id = store_->publish(*shared);
  if (store_->metrics().duplicate_publishes.load() > before) {
    count_duplicate_publish();
  }
  memo_put(id, std::move(shared));
  return id;
}

std::size_t StoreBackedVersionStore::release_count() const {
  return store_->release_count();
}

std::shared_ptr<const Bytes> StoreBackedVersionStore::body(
    ReleaseId id) const {
  if (auto memo = memo_get(id)) return memo;
  std::shared_ptr<const Bytes> reconstructed = store_->body(id);
  memo_put(id, reconstructed);
  return reconstructed;
}

ContentKey StoreBackedVersionStore::content_key(ReleaseId id) const {
  return store_->content_key(id);
}

std::optional<ReleaseId> StoreBackedVersionStore::find(
    const ContentKey& key) const {
  return store_->find(key);
}

ReleaseId StoreBackedVersionStore::latest() const {
  return store_->latest();
}

std::shared_ptr<const Bytes> StoreBackedVersionStore::memo_get(
    ReleaseId id) const {
  const MutexLock lock(memo_mutex_);
  const auto it = memo_.find(id);
  if (it == memo_.end()) return nullptr;
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.second);
  return it->second.first;
}

void StoreBackedVersionStore::memo_put(
    ReleaseId id, std::shared_ptr<const Bytes> body) const {
  if (body->size() > ram_budget_) return;
  const MutexLock lock(memo_mutex_);
  if (memo_.contains(id)) return;  // releases are immutable
  memo_bytes_ += body->size();
  memo_lru_.push_front(id);
  memo_[id] = {std::move(body), memo_lru_.begin()};
  while (memo_bytes_ > ram_budget_ && !memo_lru_.empty()) {
    const ReleaseId victim = memo_lru_.back();
    memo_lru_.pop_back();
    const auto vit = memo_.find(victim);
    memo_bytes_ -= vit->second.first->size();
    memo_.erase(vit);
  }
}

std::size_t preload_stored_edges(const ArtifactStore& store,
                                 DeltaService& service) {
  std::size_t accepted = 0;
  for (const StoredEdge& edge : store.stored_edges()) {
    Bytes artifact = store.stored_artifact(edge.to);
    if (service.preload(edge.from, edge.to, std::move(artifact))) {
      ++accepted;
    }
  }
  return accepted;
}

}  // namespace ipd
