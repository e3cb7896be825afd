#include "src/exec/upload_cache.h"

#include <sstream>
#include <vector>

namespace gjoin::exec {

std::string UploadCache::UploadKey(const data::Relation& rel) {
  std::ostringstream os;
  os << "up:" << static_cast<const void*>(&rel) << ":n=" << rel.size();
  return os.str();
}

std::string UploadCache::BuildKey(
    const data::Relation& rel,
    const gpujoin::RadixPartitionConfig& partition) {
  std::ostringstream os;
  os << "pb:" << static_cast<const void*>(&rel) << ":n=" << rel.size()
     << ":bits=";
  for (int b : partition.pass_bits) os << b << ".";
  os << ":shift=" << partition.base_shift
     << ":cap=" << partition.bucket_capacity
     << ":tpb=" << partition.threads_per_block
     << ":grid=" << partition.num_blocks
     << ":assign=" << static_cast<int>(partition.assignment)
     << ":stage=" << partition.stage_elems;
  return os.str();
}

void UploadCache::AddDemand(const std::string& key) { ++demand_[key]; }

int UploadCache::DemandOf(const std::string& key) const {
  auto it = demand_.find(key);
  return it != demand_.end() ? it->second : 0;
}

template <typename T>
const T* UploadCache::Acquire(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  Entry& entry = it->second;
  ++stats_.hits;
  ++entry.in_use;
  entry.last_use = ++use_clock_;
  if (entry.future_uses > 0) --entry.future_uses;
  ConsumeDeclaredUse(key);
  const auto* artifact = std::get_if<std::unique_ptr<T>>(&entry.artifact);
  return artifact != nullptr ? artifact->get() : nullptr;
}

bool UploadCache::MakeRoom(uint64_t bytes) {
  if (bytes > budget_bytes_) return false;
  while (bytes_cached_ + bytes > budget_bytes_) {
    // Victim: idle entries only; prefer ones no query still wants, then
    // least recently used.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.in_use > 0) continue;
      if (victim == entries_.end()) {
        victim = it;
        continue;
      }
      const bool it_unwanted = it->second.future_uses == 0;
      const bool victim_unwanted = victim->second.future_uses == 0;
      if (it_unwanted != victim_unwanted) {
        if (it_unwanted) victim = it;
      } else if (it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return false;
    bytes_cached_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
  return true;
}

void UploadCache::ConsumeDeclaredUse(const std::string& key) {
  auto demand = demand_.find(key);
  if (demand != demand_.end() && demand->second > 0) --demand->second;
}

template <typename T>
util::Result<const T*> UploadCache::Insert(const std::string& key,
                                           T* artifact, uint64_t bytes) {
  // The inserting query consumes one declared use whether or not the
  // artifact ends up cached.
  ConsumeDeclaredUse(key);
  if (bytes > budget_bytes_) {
    ++stats_.insert_failures;
    return util::Status::OutOfMemory(
        "artifact '" + key + "' (" + std::to_string(bytes) +
        " bytes) exceeds the device artifact-cache budget (" +
        std::to_string(budget_bytes_) + " bytes)");
  }
  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    if (existing->second.in_use > 0) {
      // A resident, pinned duplicate means the caller raced its own
      // Acquire; refuse rather than clobber a handed-out pointer.
      ++stats_.insert_failures;
      return static_cast<const T*>(nullptr);
    }
    bytes_cached_ -= existing->second.bytes;
    entries_.erase(existing);
  }
  if (!MakeRoom(bytes)) {
    ++stats_.insert_failures;
    return static_cast<const T*>(nullptr);
  }
  Entry& entry = entries_[key];
  entry.artifact = std::make_unique<T>(std::move(*artifact));
  entry.bytes = bytes;
  entry.in_use = 1;
  entry.last_use = ++use_clock_;
  entry.future_uses = DemandOf(key);
  bytes_cached_ += bytes;
  return std::get<std::unique_ptr<T>>(entry.artifact).get();
}

void UploadCache::Release(const std::string& key) {
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.in_use > 0) --it->second.in_use;
}

template const gjoin::gpujoin::DeviceRelation* UploadCache::Acquire(
    const std::string&);
template const gjoin::gpujoin::PreparedBuild* UploadCache::Acquire(
    const std::string&);
template util::Result<const gjoin::gpujoin::DeviceRelation*>
UploadCache::Insert(const std::string&, gjoin::gpujoin::DeviceRelation*,
                    uint64_t);
template util::Result<const gjoin::gpujoin::PreparedBuild*>
UploadCache::Insert(const std::string&, gjoin::gpujoin::PreparedBuild*,
                    uint64_t);

}  // namespace gjoin::exec
