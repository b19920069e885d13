#ifndef DRRS_STATE_KEYED_STATE_H_
#define DRRS_STATE_KEYED_STATE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "dataflow/stream_element.h"
#include "sim/sim_time.h"

namespace drrs::state {

/// \brief Per-key state record.
///
/// A small general-purpose cell that covers the operators in this repo:
/// counters/sums for aggregations, `windows` for sliding-window panes
/// (window_end -> aggregate), and `nominal_bytes`, the modeled serialized
/// size used by the network model during migration. Operators adjust
/// `nominal_bytes` as their logical state grows (e.g. the custom workload's
/// configurable state size, paper Section V-D).
struct StateCell {
  int64_t counter = 0;
  int64_t sum = 0;
  int64_t last_value = 0;
  std::vector<std::pair<sim::SimTime, int64_t>> windows;
  uint64_t nominal_bytes = 64;

  /// Default size model: fixed envelope plus 16 bytes per open window pane.
  void RecomputeBytes(uint64_t base = 64) {
    nominal_bytes = base + windows.size() * 16;
  }
};

/// State of one key-group, the atomic migration unit.
struct KeyGroupState {
  dataflow::KeyGroupId key_group = 0;
  std::unordered_map<dataflow::KeyT, StateCell> cells;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    // lint:allow(unordered-iteration): pure sum fold; order-independent.
    for (const auto& [key, cell] : cells) total += cell.nominal_bytes;
    return total;
  }
};

/// \brief Hash-indexed cell store of one key-group, laid out as parallel
/// arrays (struct-of-arrays) for the lookup-hot data.
///
/// The probe loop of a lookup touches only two dense arrays — the
/// open-addressing `index_` table and the `slot_keys_` array — never the
/// cells themselves, so a miss or a long probe chain stays inside a couple
/// of cache lines. Cells live in fixed-size slabs that are allocated once
/// and never move: `StateCell*` handed to callers stays valid across any
/// number of inserts (operators hold one across a record's processing).
/// Erased slots turn into index tombstones
/// plus a slot freelist; iteration walks slots in allocation order, so a
/// freshly filled store visits keys in insertion order deterministically.
class GroupStore {
 public:
  StateCell* Find(dataflow::KeyT key) {
    if (size_ == 0) return nullptr;
    const size_t mask = index_.size() - 1;
    size_t i = HashKey(key) & mask;
    while (true) {
      const IndexEntry& e = index_[i];
      if (e.slot == kEmpty) return nullptr;
      if (e.key == key && e.slot != kTombstone) {
        return &CellAt(static_cast<uint32_t>(e.slot));
      }
      i = (i + 1) & mask;
    }
  }

  /// Returns (cell, inserted). A fresh cell is default-constructed.
  std::pair<StateCell*, bool> FindOrInsert(dataflow::KeyT key);

  /// Remove `key`; destroys the cell's contents and recycles the slot.
  bool Erase(dataflow::KeyT key);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drop every cell and the index; slabs are released too.
  void Clear();

  /// Visit live cells in slot (allocation) order as fn(key, cell).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t s = 0; s < slot_keys_.size(); ++s) {
      if (!slot_live_[s]) continue;
      fn(slot_keys_[s], CellAt(s));
    }
  }

 private:
  static constexpr int32_t kEmpty = -1;
  static constexpr int32_t kTombstone = -2;
  static constexpr uint32_t kSlabBits = 6;
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;  // cells per slab
  using Slab = std::array<StateCell, kSlabSize>;

  /// One open-addressing table entry. The key is replicated here so the
  /// probe loop stays within this single dense array (the struct-of-arrays
  /// split that matters: probing never touches the fat cell slabs).
  struct IndexEntry {
    dataflow::KeyT key = 0;
    int32_t slot = kEmpty;
  };

  StateCell& CellAt(uint32_t slot) const {
    return (*slabs_[slot >> kSlabBits])[slot & (kSlabSize - 1)];
  }

  void Rehash(size_t new_cap);
  uint32_t AllocateSlot(dataflow::KeyT key);

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<dataflow::KeyT> slot_keys_;  ///< parallel to slots
  std::vector<uint8_t> slot_live_;         ///< parallel to slots
  std::vector<uint32_t> free_slots_;
  /// Open-addressing table (linear probing over IndexEntry).
  std::vector<IndexEntry> index_;
  size_t size_ = 0;
  size_t used_ = 0;  ///< live + tombstoned index entries
};

/// \brief Keyed state of one task instance, partitioned by key-group.
///
/// Mirrors Flink's keyed state backend at the granularity the scaling
/// mechanisms need: ownership per key-group, extraction/installation of whole
/// key-groups (or Meces-style sub-key-groups), and full snapshots for
/// checkpointing.
class KeyedStateBackend {
 public:
  explicit KeyedStateBackend(uint32_t num_key_groups)
      : num_key_groups_(num_key_groups), groups_(num_key_groups) {}

  uint32_t num_key_groups() const { return num_key_groups_; }

  /// Declare this instance the owner of `kg` (initial deployment / after a
  /// completed migration).
  void AcquireKeyGroup(dataflow::KeyGroupId kg) { owned_.insert(kg); }
  void ReleaseKeyGroup(dataflow::KeyGroupId kg) { owned_.erase(kg); }
  bool OwnsKeyGroup(dataflow::KeyGroupId kg) const {
    return owned_.count(kg) > 0;
  }
  const std::unordered_set<dataflow::KeyGroupId>& owned_key_groups() const {
    return owned_;
  }

  /// Access the cell for `key` in key-group `kg`, creating it if absent.
  /// The caller is responsible for only touching owned key-groups; that
  /// invariant is what the scaling strategies enforce and the tests check.
  StateCell* GetOrCreate(dataflow::KeyGroupId kg, dataflow::KeyT key);

  /// Returns null when the key has no state yet.
  StateCell* Get(dataflow::KeyGroupId kg, dataflow::KeyT key);

  bool HasAnyState(dataflow::KeyGroupId kg) const {
    return !groups_[kg].empty();
  }

  /// Move out the full state of a key-group (ownership is released).
  KeyGroupState ExtractKeyGroup(dataflow::KeyGroupId kg);

  /// Move out only the keys of `kg` whose sub-key-group (hash % fanout) is
  /// `sub`. Used by Meces' hierarchical state organization. Ownership flags
  /// are managed by the caller.
  KeyGroupState ExtractSubKeyGroup(dataflow::KeyGroupId kg, uint32_t sub,
                                   uint32_t fanout);

  /// Merge a migrated key-group into this backend and mark it owned.
  void InstallKeyGroup(KeyGroupState state);

  /// Merge migrated cells (e.g. a sub-key-group) without touching ownership.
  /// Incoming cells replace same-key cells.
  void MergeCells(KeyGroupState state);

  /// Visit every key currently stored in `kg` (slot order: insertion order
  /// until keys are erased). The callback must not mutate the backend's key
  /// set (cell contents are fine to change via Get).
  template <typename Fn>
  void ForEachKey(dataflow::KeyGroupId kg, Fn&& fn) const {
    groups_[kg].ForEach([&](dataflow::KeyT key, const StateCell&) { fn(key); });
  }

  /// Modeled serialized size of `kg`: the sum of its cells' `nominal_bytes`.
  uint64_t KeyGroupBytes(dataflow::KeyGroupId kg) const;
  uint64_t KeyCount(dataflow::KeyGroupId kg) const {
    return groups_[kg].size();
  }

  /// Total serialized size across owned key-groups, summed over their cells
  /// on each call. Metrics read it once per sample period, so a scan is
  /// cheaper than keeping a running counter in step with every cell write.
  uint64_t TotalBytes() const;
  uint64_t TotalKeys() const;

  /// Deep copy of all owned state (checkpointing).
  std::vector<KeyGroupState> Snapshot() const;

  /// Replace all local state with a snapshot (restore path).
  void Restore(std::vector<KeyGroupState> snapshot);

  /// Wipe every cell while keeping key-group ownership (task-crash model:
  /// the instance loses its volatile state but keeps its routing role; a
  /// checkpoint restore repopulates the owned groups).
  void DropAllCells();

 private:
  uint32_t num_key_groups_;
  std::vector<GroupStore> groups_;
  std::unordered_set<dataflow::KeyGroupId> owned_;
};

}  // namespace drrs::state

#endif  // DRRS_STATE_KEYED_STATE_H_
