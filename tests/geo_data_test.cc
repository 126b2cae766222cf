#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "data/csv_io.h"
#include "data/dataset.h"
#include "data/item_dictionary.h"
#include "data/schema.h"
#include "data/stats.h"
#include "geo/geo.h"
#include "support/reference_inverted_index.h"

namespace yver {
namespace {

using data::AttributeId;
using data::Dataset;
using data::Record;

// ---------------------------------------------------------------------------
// Geo

TEST(GeoTest, ZeroDistanceToSelf) {
  geo::GeoPoint p{45.07, 7.69};
  EXPECT_DOUBLE_EQ(geo::HaversineKm(p, p), 0.0);
}

TEST(GeoTest, TurinMoncalieriAboutNineKm) {
  // The paper's example: Turin-Moncalieri = 9 km.
  geo::GeoPoint turin{45.07, 7.69};
  geo::GeoPoint moncalieri{45.00, 7.68};
  double d = geo::HaversineKm(turin, moncalieri);
  EXPECT_GT(d, 5.0);
  EXPECT_LT(d, 12.0);
}

TEST(GeoTest, Symmetric) {
  geo::GeoPoint a{52.23, 21.01};
  geo::GeoPoint b{50.06, 19.94};
  EXPECT_DOUBLE_EQ(geo::HaversineKm(a, b), geo::HaversineKm(b, a));
}

TEST(GeoTest, WarsawKrakowAbout250Km) {
  geo::GeoPoint warsaw{52.23, 21.01};
  geo::GeoPoint krakow{50.06, 19.94};
  double d = geo::HaversineKm(warsaw, krakow);
  EXPECT_GT(d, 200.0);
  EXPECT_LT(d, 300.0);
}

// ---------------------------------------------------------------------------
// Schema

TEST(SchemaTest, PlaceAttributeMapping) {
  EXPECT_EQ(data::PlaceAttribute(data::PlaceType::kBirth,
                                 data::PlacePart::kCity),
            AttributeId::kBirthCity);
  EXPECT_EQ(data::PlaceAttribute(data::PlaceType::kDeath,
                                 data::PlacePart::kCountry),
            AttributeId::kDeathCountry);
  EXPECT_EQ(data::PlaceAttribute(data::PlaceType::kWartime,
                                 data::PlacePart::kRegion),
            AttributeId::kWarRegion);
}

TEST(SchemaTest, ShortNameRoundTrip) {
  for (AttributeId attr : data::AllAttributes()) {
    auto parsed = data::AttributeFromShortName(data::AttributeShortName(attr));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, attr);
  }
}

TEST(SchemaTest, ShortNamesAreUnique) {
  std::set<std::string_view> names;
  for (AttributeId attr : data::AllAttributes()) {
    EXPECT_TRUE(names.insert(data::AttributeShortName(attr)).second);
  }
}

TEST(SchemaTest, ValueClasses) {
  EXPECT_EQ(data::AttributeClass(AttributeId::kFirstName),
            data::ValueClass::kName);
  EXPECT_EQ(data::AttributeClass(AttributeId::kGender),
            data::ValueClass::kCategorical);
  EXPECT_EQ(data::AttributeClass(AttributeId::kBirthYear),
            data::ValueClass::kYear);
  EXPECT_EQ(data::AttributeClass(AttributeId::kWarCity),
            data::ValueClass::kGeo);
  EXPECT_EQ(data::AttributeClass(AttributeId::kWarCountry),
            data::ValueClass::kPlacePart);
}

// ---------------------------------------------------------------------------
// Record

TEST(RecordTest, MultiValuedAttributes) {
  Record r;
  r.Add(AttributeId::kFirstName, "John");
  r.Add(AttributeId::kFirstName, "Harris");
  r.Add(AttributeId::kLastName, "Smith");
  EXPECT_EQ(r.Values(AttributeId::kFirstName).size(), 2u);
  EXPECT_EQ(r.FirstValue(AttributeId::kFirstName), "John");
  EXPECT_TRUE(r.Has(AttributeId::kLastName));
  EXPECT_FALSE(r.Has(AttributeId::kGender));
}

TEST(RecordTest, EmptyValuesIgnored) {
  Record r;
  r.Add(AttributeId::kFirstName, "");
  EXPECT_FALSE(r.Has(AttributeId::kFirstName));
  EXPECT_EQ(r.FirstValue(AttributeId::kFirstName), "");
}

TEST(RecordTest, PresenceMask) {
  Record r;
  r.Add(AttributeId::kFirstName, "Guido");
  r.Add(AttributeId::kLastName, "Foa");
  uint32_t mask = r.PresenceMask();
  EXPECT_TRUE(mask & (1u << 0));  // FirstName
  EXPECT_TRUE(mask & (1u << 1));  // LastName
  EXPECT_FALSE(mask & (1u << 7));  // Gender
}

// ---------------------------------------------------------------------------
// Dataset gold helpers

Dataset MakeGoldDataset() {
  Dataset ds;
  for (int i = 0; i < 5; ++i) {
    Record r;
    r.book_id = 1000u + static_cast<uint64_t>(i);
    r.entity_id = i < 3 ? 1 : 2;  // records 0,1,2 same entity; 3,4 another
    r.family_id = 7;
    r.Add(AttributeId::kFirstName, "X");
    ds.Add(std::move(r));
  }
  return ds;
}

TEST(DatasetTest, GoldMatchSemantics) {
  Dataset ds = MakeGoldDataset();
  EXPECT_TRUE(ds.IsGoldMatch(0, 1));
  EXPECT_TRUE(ds.IsGoldMatch(3, 4));
  EXPECT_FALSE(ds.IsGoldMatch(0, 3));
  EXPECT_TRUE(ds.IsGoldFamilyMatch(0, 3));
}

TEST(DatasetTest, UnknownEntityNeverMatches) {
  Dataset ds;
  Record a;
  a.entity_id = data::kUnknownEntity;
  Record b;
  b.entity_id = data::kUnknownEntity;
  ds.Add(std::move(a));
  ds.Add(std::move(b));
  EXPECT_FALSE(ds.IsGoldMatch(0, 1));
}

TEST(DatasetTest, GoldPairCounts) {
  Dataset ds = MakeGoldDataset();
  EXPECT_EQ(ds.NumGoldPairs(), 3u + 1u);  // C(3,2) + C(2,2)
  EXPECT_EQ(ds.GoldPairs().size(), 4u);
}

TEST(RecordPairTest, CanonicalOrder) {
  data::RecordPair p(7, 3);
  EXPECT_EQ(p.a, 3u);
  EXPECT_EQ(p.b, 7u);
  EXPECT_EQ(p, data::RecordPair(3, 7));
}

// ---------------------------------------------------------------------------
// ItemDictionary / EncodedDataset

TEST(ItemDictionaryTest, InternIsIdempotent) {
  data::ItemDictionary dict;
  auto id1 = dict.Intern(AttributeId::kFirstName, "Moshe");
  auto id2 = dict.Intern(AttributeId::kFirstName, "Moshe");
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(ItemDictionaryTest, SameValueDifferentAttributeDistinct) {
  data::ItemDictionary dict;
  auto id1 = dict.Intern(AttributeId::kFirstName, "Israel");
  auto id2 = dict.Intern(AttributeId::kLastName, "Israel");
  EXPECT_NE(id1, id2);
}

TEST(ItemDictionaryTest, DebugStringUsesPrefix) {
  data::ItemDictionary dict;
  auto id = dict.Intern(AttributeId::kFirstName, "Moshe");
  EXPECT_EQ(dict.DebugString(id), "FN_Moshe");
}

TEST(EncodeDatasetTest, BagsAreSortedUniqueWithFrequencies) {
  Dataset ds;
  Record a;
  a.Add(AttributeId::kFirstName, "Guido");
  a.Add(AttributeId::kLastName, "Foa");
  ds.Add(std::move(a));
  Record b;
  b.Add(AttributeId::kFirstName, "Guido");
  ds.Add(std::move(b));
  auto encoded = data::EncodeDataset(ds);
  ASSERT_EQ(encoded.bags.size(), 2u);
  EXPECT_EQ(encoded.bags[0].size(), 2u);
  EXPECT_TRUE(std::is_sorted(encoded.bags[0].begin(), encoded.bags[0].end()));
  auto guido = encoded.dictionary.Find(AttributeId::kFirstName, "Guido");
  ASSERT_TRUE(guido.has_value());
  EXPECT_EQ(encoded.dictionary.frequency(*guido), 2u);
}

TEST(EncodeDatasetTest, GeoResolverPopulatesCoordinates) {
  Dataset ds;
  Record a;
  a.Add(AttributeId::kBirthCity, "Torino");
  ds.Add(std::move(a));
  auto resolver = [](AttributeId, std::string_view v)
      -> std::optional<geo::GeoPoint> {
    if (v == "Torino") return geo::GeoPoint{45.07, 7.69};
    return std::nullopt;
  };
  auto encoded = data::EncodeDataset(ds, resolver);
  auto id = encoded.dictionary.Find(AttributeId::kBirthCity, "Torino");
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(encoded.dictionary.geo(*id).has_value());
  EXPECT_DOUBLE_EQ(encoded.dictionary.geo(*id)->lat_deg, 45.07);
}

TEST(EncodeDatasetTest, PruneMostFrequentRemovesHeavyItems) {
  Dataset ds;
  for (int i = 0; i < 100; ++i) {
    Record r;
    r.Add(AttributeId::kGender, "M");  // appears everywhere
    r.Add(AttributeId::kFirstName, "N" + std::to_string(i));
    ds.Add(std::move(r));
  }
  auto encoded = data::EncodeDataset(ds);
  // 101 distinct items; prune top 1% => the single most frequent item (G_M).
  auto pruned = encoded.PruneMostFrequent(0.01);
  for (const auto& bag : pruned) EXPECT_EQ(bag.size(), 1u);
}

// ---------------------------------------------------------------------------
// InvertedIndex

TEST(InvertedIndexTest, SupportIntersection) {
  std::vector<data::ItemBag> bags = {
      {0, 1, 2}, {0, 1}, {1, 2}, {0, 1, 2, 3}};
  data::InvertedIndex index(bags, 4);
  EXPECT_EQ(index.Postings(1).size(), 4u);
  auto support = index.Support({0, 1});
  ASSERT_EQ(support.size(), 3u);
  EXPECT_EQ(support[0], 0u);
  EXPECT_EQ(support[2], 3u);
  EXPECT_EQ(index.Support({0, 2}).size(), 2u);
  EXPECT_TRUE(index.Support({3, 2, 0, 1}).size() == 1);
  EXPECT_TRUE(index.Support({}).empty());
}

// ---------------------------------------------------------------------------
// Stats

TEST(StatsTest, PatternCounts) {
  Dataset ds;
  for (int i = 0; i < 3; ++i) {
    Record r;
    r.Add(AttributeId::kFirstName, "A");
    r.Add(AttributeId::kLastName, "B");
    ds.Add(std::move(r));
  }
  Record other;
  other.Add(AttributeId::kFirstName, "A");
  ds.Add(std::move(other));
  auto stats = data::ComputePatternStats(ds);
  EXPECT_EQ(stats.NumPatterns(), 2u);
  EXPECT_EQ(stats.MostPrevalent().second, 3u);
}

TEST(StatsTest, Fig11BucketsPartitionPatterns) {
  Dataset ds;
  for (int i = 0; i < 50; ++i) {
    Record r;
    r.Add(AttributeId::kFirstName, "A");
    ds.Add(std::move(r));
  }
  auto stats = data::ComputePatternStats(ds);
  auto buckets = stats.Fig11Buckets();
  ASSERT_EQ(buckets.size(), 5u);
  size_t total_patterns = 0;
  size_t total_records = 0;
  for (const auto& b : buckets) {
    total_patterns += b.num_patterns;
    total_records += b.num_records;
  }
  EXPECT_EQ(total_patterns, stats.NumPatterns());
  EXPECT_EQ(total_records, ds.size());
  EXPECT_EQ(buckets[1].num_patterns, 1u);  // 50 records -> (10,100] bucket
}

TEST(StatsTest, Prevalence) {
  Dataset ds;
  Record a;
  a.Add(AttributeId::kFirstName, "X");
  ds.Add(std::move(a));
  Record b;
  b.Add(AttributeId::kFirstName, "Y");
  b.Add(AttributeId::kGender, "F");
  ds.Add(std::move(b));
  auto rows = data::ComputePrevalence(ds);
  EXPECT_EQ(rows[static_cast<size_t>(AttributeId::kFirstName)].num_records,
            2u);
  EXPECT_DOUBLE_EQ(
      rows[static_cast<size_t>(AttributeId::kGender)].fraction, 0.5);
}

TEST(StatsTest, Cardinality) {
  Dataset ds;
  for (const char* name : {"A", "B", "A", "A"}) {
    Record r;
    r.Add(AttributeId::kFirstName, name);
    ds.Add(std::move(r));
  }
  auto rows = data::ComputeCardinality(ds);
  const auto& fn = rows[static_cast<size_t>(AttributeId::kFirstName)];
  EXPECT_EQ(fn.num_items, 2u);
  EXPECT_DOUBLE_EQ(fn.records_per_item, 2.0);
}

// ---------------------------------------------------------------------------
// CSV I/O

TEST(CsvIoTest, RoundTrip) {
  Dataset ds;
  Record r;
  r.book_id = 1016196;
  r.source_id = 42;
  r.source_kind = data::SourceKind::kPageOfTestimony;
  r.entity_id = 5;
  r.family_id = 2;
  r.Add(AttributeId::kFirstName, "Guido");
  r.Add(AttributeId::kFirstName, "Massimo");
  r.Add(AttributeId::kLastName, "Foa");
  r.Add(AttributeId::kPermCity, "Torino");
  ds.Add(std::move(r));
  auto text = data::DatasetToCsv(ds);
  auto parsed = data::DatasetFromCsv(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  const Record& back = (*parsed)[0];
  EXPECT_EQ(back.book_id, 1016196u);
  EXPECT_EQ(back.source_id, 42u);
  EXPECT_EQ(back.entity_id, 5);
  EXPECT_EQ(back.Values(AttributeId::kFirstName).size(), 2u);
  EXPECT_EQ(back.FirstValue(AttributeId::kPermCity), "Torino");
}

TEST(CsvIoTest, RejectsGarbage) {
  EXPECT_FALSE(data::DatasetFromCsv("not,a,dataset\n1,2,3\n").has_value());
  EXPECT_FALSE(data::DatasetFromCsv("").has_value());
}

}  // namespace
}  // namespace yver
