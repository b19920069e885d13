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
  StateCell* cell = groups_[kg].FindOrInsert(key).first;
  // Pessimistic journal entry: the caller holds a mutable pointer and may
  // grow/shrink the cell before the next accounting read. A fresh cell has
  // acct_bytes == 0, so the flush also picks up its initial footprint. The
  // journaled bit keeps a hot cell from piling up duplicate entries.
  if (!cell->journaled) {
    cell->journaled = true;
    touched_.emplace_back(kg, cell);
  }
  return cell;
}

StateCell* KeyedStateBackend::Get(dataflow::KeyGroupId kg,
                                  dataflow::KeyT key) {
  DRRS_CHECK(kg < num_key_groups_);
  StateCell* cell = groups_[kg].Find(key);
  if (cell == nullptr) return nullptr;
  if (!cell->journaled) {
    cell->journaled = true;
    touched_.emplace_back(kg, cell);
  }
  return cell;
}

void KeyedStateBackend::FlushAccounting() const {
  for (const auto& [kg, cell] : touched_) {
    group_bytes_[kg] += cell->nominal_bytes - cell->acct_bytes;
    cell->acct_bytes = cell->nominal_bytes;
    cell->journaled = false;
  }
  touched_.clear();
}

void KeyedStateBackend::DebugRecount() const {
  for (dataflow::KeyGroupId kg = 0; kg < num_key_groups_; ++kg) {
    uint64_t actual = 0;
    groups_[kg].ForEach([&](dataflow::KeyT, const StateCell& cell) {
      actual += cell.nominal_bytes;
    });
    DRRS_CHECK(actual == group_bytes_[kg])
        << "state accounting drift in key-group " << kg << ": counter says "
        << group_bytes_[kg] << ", rescan says " << actual;
  }
}

KeyGroupState KeyedStateBackend::ExtractKeyGroup(dataflow::KeyGroupId kg) {
  DRRS_CHECK(kg < num_key_groups_);
  FlushAccounting();
  KeyGroupState out;
  out.key_group = kg;
  groups_[kg].ForEach([&](dataflow::KeyT key, StateCell& cell) {
    out.cells.emplace(key, std::move(cell));
  });
  groups_[kg].Clear();
  group_bytes_[kg] = 0;
  owned_.erase(kg);
  return out;
}

KeyGroupState KeyedStateBackend::ExtractSubKeyGroup(dataflow::KeyGroupId kg,
                                                    uint32_t sub,
                                                    uint32_t fanout) {
  DRRS_CHECK(kg < num_key_groups_);
  DRRS_CHECK(fanout > 0 && sub < fanout);
  FlushAccounting();
  KeyGroupState out;
  out.key_group = kg;
  GroupStore& g = groups_[kg];
  std::vector<dataflow::KeyT> moved;
  g.ForEach([&](dataflow::KeyT key, StateCell& cell) {
    if (HashKey(key ^ 0x5BD1E995) % fanout != sub) return;
    group_bytes_[kg] -= cell.nominal_bytes;
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
  FlushAccounting();
  GroupStore& g = groups_[state.key_group];
  uint64_t& bytes = group_bytes_[state.key_group];
  // Per-key moves into distinct cells plus sum-folded byte counters;
  // commutative, so the final backend state does not depend on visit order
  // (slot numbering may differ, but slots are an internal layout detail
  // never observable in events or metrics).
  // NOLINTNEXTLINE(drrs-unordered-iteration): commutative per-key merge + sum folds.
  for (auto& [key, cell] : state.cells) {
    auto [dst, inserted] = g.FindOrInsert(key);
    if (!inserted) bytes -= dst->nominal_bytes;
    bool was_journaled = dst->journaled;  // journal entry survives the move
    *dst = std::move(cell);
    dst->acct_bytes = dst->nominal_bytes;
    dst->journaled = was_journaled;
    bytes += dst->nominal_bytes;
  }
}

uint64_t KeyedStateBackend::KeyGroupBytes(dataflow::KeyGroupId kg) const {
  FlushAccounting();
  if (debug_recount_) DebugRecount();
  return group_bytes_[kg];
}

uint64_t KeyedStateBackend::TotalBytes() const {
  FlushAccounting();
  if (debug_recount_) DebugRecount();
  uint64_t total = 0;
  // NOLINTNEXTLINE(drrs-unordered-iteration): pure sum fold; order-independent.
  for (dataflow::KeyGroupId kg : owned_) total += group_bytes_[kg];
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
  touched_.clear();  // pointers below are about to be invalidated
  for (auto& g : groups_) g.Clear();
  for (auto& b : group_bytes_) b = 0;
}

void KeyedStateBackend::Restore(std::vector<KeyGroupState> snapshot) {
  touched_.clear();  // pointers below are about to be invalidated
  for (auto& g : groups_) g.Clear();
  for (auto& b : group_bytes_) b = 0;
  owned_.clear();
  for (auto& s : snapshot) InstallKeyGroup(std::move(s));
}

}  // namespace drrs::state
