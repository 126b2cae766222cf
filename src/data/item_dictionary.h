#ifndef YVER_DATA_ITEM_DICTIONARY_H_
#define YVER_DATA_ITEM_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "data/schema.h"
#include "geo/geo.h"

namespace yver::data {

/// Dense identifier of a distinct (attribute, value) item.
using ItemId = uint32_t;

/// A record's bag of items, sorted and deduplicated.
using ItemBag = std::vector<ItemId>;

/// Resolves geo coordinates for city-class attribute values so that the
/// expert item similarity can compute geographic distances; return nullopt
/// when unknown.
using GeoResolver = std::function<std::optional<geo::GeoPoint>(
    AttributeId, std::string_view)>;

/// Interns (attribute, value) pairs as dense items and carries per-item
/// metadata (type, frequency, optional coordinates). This realizes the
/// paper's preprocessing step: "each field ... was given a unique prefix,
/// which was added to the items" (§5.1); FN_Moshe-style items become dense
/// integer ids.
class ItemDictionary {
 public:
  ItemDictionary() = default;

  /// Interns an item, creating it on first sight.
  ItemId Intern(AttributeId attr, std::string_view value);

  /// Looks up an item without creating it.
  std::optional<ItemId> Find(AttributeId attr, std::string_view value) const;

  /// Number of distinct items.
  size_t size() const { return items_.size(); }

  AttributeId attribute(ItemId id) const { return items_[id].attr; }
  const std::string& value(ItemId id) const { return items_[id].value; }

  /// Number of records this item occurs in (set by EncodeDataset).
  uint32_t frequency(ItemId id) const { return items_[id].frequency; }

  /// Coordinates for geo-class items, when resolvable.
  const std::optional<geo::GeoPoint>& geo(ItemId id) const {
    return items_[id].geo;
  }

  /// Sets the coordinates of an item.
  void SetGeo(ItemId id, const geo::GeoPoint& point) { items_[id].geo = point; }

  /// Printable form, e.g. "FN_Moshe".
  std::string DebugString(ItemId id) const;

  /// Adds one to the record frequency of an item (used by EncodeDataset).
  void IncrementFrequency(ItemId id) { ++items_[id].frequency; }

  /// Takes one off the record frequency of an item (the undo of an
  /// IncrementFrequency when a record is retracted). The item stays
  /// interned.
  void DecrementFrequency(ItemId id) { --items_[id].frequency; }

 private:
  struct ItemInfo {
    AttributeId attr;
    std::string value;
    uint32_t frequency = 0;
    std::optional<geo::GeoPoint> geo;
  };

  std::vector<ItemInfo> items_;
  // Key: short attribute prefix + '\x1f' + value.
  std::unordered_map<std::string, ItemId> index_;
};

/// A dataset converted to per-record item bags — the transaction database
/// mined by MFIBlocks.
struct EncodedDataset {
  const Dataset* dataset = nullptr;
  ItemDictionary dictionary;
  std::vector<ItemBag> bags;  // parallel to dataset->records()

  /// Items occurring in at least `min_frequency` records, descending by
  /// frequency.
  std::vector<ItemId> ItemsByFrequency() const;

  /// Returns a copy of the bags with the `fraction` most frequent items
  /// removed (the paper prunes the 0.03% most frequent items to tame
  /// mining runtime, §6.3). `fraction` is of the distinct item count.
  std::vector<ItemBag> PruneMostFrequent(double fraction) const;
};

/// Encodes every record of a dataset into its item bag, interning items and
/// tallying frequencies. `geo_resolver` may be empty.
EncodedDataset EncodeDataset(const Dataset& dataset,
                             const GeoResolver& geo_resolver = {});

}  // namespace yver::data

#endif  // YVER_DATA_ITEM_DICTIONARY_H_
