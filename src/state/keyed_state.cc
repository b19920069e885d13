#include "state/keyed_state.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace drrs::state {

// ---------------------------------------------------------------------------
// GroupStore
// ---------------------------------------------------------------------------

void GroupStore::Rehash(size_t new_cap) {
  index_.assign(new_cap, IndexEntry{});
  const size_t mask = new_cap - 1;
  used_ = 0;
  for (uint32_t s = 0; s < slot_keys_.size(); ++s) {
    if (!slot_live_[s]) continue;
    size_t i = HashKey(slot_keys_[s]) & mask;
    while (index_[i].slot != kEmpty) i = (i + 1) & mask;
    index_[i] = IndexEntry{slot_keys_[s], static_cast<int32_t>(s)};
    ++used_;
  }
}

uint32_t GroupStore::AllocateSlot(dataflow::KeyT key) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slot_keys_.size());
    if ((slot >> kSlabBits) >= slabs_.size()) {
      slabs_.push_back(std::make_unique<Slab>());
    }
    slot_keys_.push_back(0);
    slot_live_.push_back(0);
  }
  slot_keys_[slot] = key;
  slot_live_[slot] = 1;
  return slot;
}

std::pair<StateCell*, bool> GroupStore::FindOrInsert(dataflow::KeyT key) {
  if (index_.empty()) Rehash(16);
  // Grow at 3/4 load, counting tombstones (they lengthen probe chains too).
  // When live entries alone would still fit comfortably, rebuild at the same
  // size — that just sweeps the tombstones out.
  if ((used_ + 1) * 4 > index_.size() * 3) {
    Rehash((size_ + 1) * 2 > index_.size() ? index_.size() * 2
                                           : index_.size());
  }
  const size_t mask = index_.size() - 1;
  size_t i = HashKey(key) & mask;
  size_t first_tombstone = index_.size();  // sentinel: none seen
  while (true) {
    const IndexEntry& e = index_[i];
    if (e.slot == kEmpty) break;
    if (e.slot == kTombstone) {
      if (first_tombstone == index_.size()) first_tombstone = i;
    } else if (e.key == key) {
      return {&CellAt(static_cast<uint32_t>(e.slot)), false};
    }
    i = (i + 1) & mask;
  }
  uint32_t slot = AllocateSlot(key);
  if (first_tombstone != index_.size()) {
    index_[first_tombstone] =
        IndexEntry{key, static_cast<int32_t>(slot)};  // reuse, used_ same
  } else {
    index_[i] = IndexEntry{key, static_cast<int32_t>(slot)};
    ++used_;
  }
  ++size_;
  StateCell* cell = &CellAt(slot);
  *cell = StateCell{};  // recycled slots carry old contents
  return {cell, true};
}

bool GroupStore::Erase(dataflow::KeyT key) {
  if (size_ == 0) return false;
  const size_t mask = index_.size() - 1;
  size_t i = HashKey(key) & mask;
  while (true) {
    IndexEntry& e = index_[i];
    if (e.slot == kEmpty) return false;
    if (e.slot != kTombstone && e.key == key) {
      uint32_t slot = static_cast<uint32_t>(e.slot);
      e.slot = kTombstone;
      slot_live_[slot] = 0;
      CellAt(slot) = StateCell{};  // release the windows allocation now
      free_slots_.push_back(slot);
      --size_;
      return true;
    }
    i = (i + 1) & mask;
  }
}

void GroupStore::Clear() {
  slabs_.clear();
  slot_keys_.clear();
  slot_live_.clear();
  free_slots_.clear();
  index_.clear();
  size_ = 0;
  used_ = 0;
}

// ---------------------------------------------------------------------------
// KeyedStateBackend
// ---------------------------------------------------------------------------

StateCell* KeyedStateBackend::GetOrCreate(dataflow::KeyGroupId kg,
                                          dataflow::KeyT key) {
  DRRS_CHECK(kg < num_key_groups_);
  return groups_[kg].FindOrInsert(key).first;
}

StateCell* KeyedStateBackend::Get(dataflow::KeyGroupId kg,
                                  dataflow::KeyT key) {
  DRRS_CHECK(kg < num_key_groups_);
  return groups_[kg].Find(key);
}

KeyGroupState KeyedStateBackend::ExtractKeyGroup(dataflow::KeyGroupId kg) {
  DRRS_CHECK(kg < num_key_groups_);
  KeyGroupState out;
  out.key_group = kg;
  groups_[kg].ForEach([&](dataflow::KeyT key, StateCell& cell) {
    out.cells.emplace(key, std::move(cell));
  });
  groups_[kg].Clear();
  owned_.erase(kg);
  return out;
}

KeyGroupState KeyedStateBackend::ExtractSubKeyGroup(dataflow::KeyGroupId kg,
                                                    uint32_t sub,
                                                    uint32_t fanout) {
  DRRS_CHECK(kg < num_key_groups_);
  DRRS_CHECK(fanout > 0 && sub < fanout);
  KeyGroupState out;
  out.key_group = kg;
  GroupStore& g = groups_[kg];
  std::vector<dataflow::KeyT> moved;
  g.ForEach([&](dataflow::KeyT key, StateCell& cell) {
    if (HashKey(key ^ 0x5BD1E995) % fanout != sub) return;
    out.cells.emplace(key, std::move(cell));
    moved.push_back(key);
  });
  for (dataflow::KeyT key : moved) g.Erase(key);
  return out;
}

void KeyedStateBackend::InstallKeyGroup(KeyGroupState state) {
  dataflow::KeyGroupId kg = state.key_group;
  MergeCells(std::move(state));
  owned_.insert(kg);
}

void KeyedStateBackend::MergeCells(KeyGroupState state) {
  DRRS_CHECK(state.key_group < num_key_groups_);
  GroupStore& g = groups_[state.key_group];
  // Per-key moves into distinct cells: the final backend state does not
  // depend on visit order (slot numbering may differ, but slots are an
  // internal layout detail never observable in events or metrics).
  // NOLINTNEXTLINE(drrs-unordered-iteration): commutative per-key merge.
  for (auto& [key, cell] : state.cells) {
    *g.FindOrInsert(key).first = std::move(cell);
  }
}

uint64_t KeyedStateBackend::KeyGroupBytes(dataflow::KeyGroupId kg) const {
  uint64_t total = 0;
  groups_[kg].ForEach([&](dataflow::KeyT, const StateCell& cell) {
    total += cell.nominal_bytes;
  });
  return total;
}

uint64_t KeyedStateBackend::TotalBytes() const {
  uint64_t total = 0;
  // NOLINTNEXTLINE(drrs-unordered-iteration): pure sum fold; order-independent.
  for (dataflow::KeyGroupId kg : owned_) total += KeyGroupBytes(kg);
  return total;
}

uint64_t KeyedStateBackend::TotalKeys() const {
  uint64_t total = 0;
  // NOLINTNEXTLINE(drrs-unordered-iteration): pure sum fold; order-independent.
  for (dataflow::KeyGroupId kg : owned_) total += groups_[kg].size();
  return total;
}

std::vector<KeyGroupState> KeyedStateBackend::Snapshot() const {
  std::vector<KeyGroupState> out;
  out.reserve(owned_.size());
  // Snapshot in ascending key-group order: the vector is handed to
  // checkpoint storage and replayed by Restore, so its order should be a
  // function of the owned set alone, not of hash-bucket layout.
  std::vector<dataflow::KeyGroupId> sorted_kgs(owned_.begin(), owned_.end());
  std::sort(sorted_kgs.begin(), sorted_kgs.end());
  for (dataflow::KeyGroupId kg : sorted_kgs) {
    KeyGroupState s;
    s.key_group = kg;
    groups_[kg].ForEach([&](dataflow::KeyT key, const StateCell& cell) {
      s.cells.emplace(key, cell);  // deep copy
    });
    out.push_back(std::move(s));
  }
  return out;
}

void KeyedStateBackend::DropAllCells() {
  for (auto& g : groups_) g.Clear();
}

void KeyedStateBackend::Restore(std::vector<KeyGroupState> snapshot) {
  for (auto& g : groups_) g.Clear();
  owned_.clear();
  for (auto& s : snapshot) InstallKeyGroup(std::move(s));
}

}  // namespace drrs::state
