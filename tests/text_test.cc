#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "text/jaccard.h"
#include "text/jaro_winkler.h"
#include "text/levenshtein.h"
#include "text/qgram.h"

namespace yver::text {
namespace {

// ---------------------------------------------------------------------------
// Levenshtein

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("Bella", "Della"), 1u);
}

TEST(LevenshteinTest, Symmetry) {
  EXPECT_EQ(LevenshteinDistance("foa", "foy"),
            LevenshteinDistance("foy", "foa"));
}

TEST(LevenshteinTest, SimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  double s = LevenshteinSimilarity("Guido", "Guida");
  EXPECT_GT(s, 0.7);
  EXPECT_LT(s, 1.0);
}

// ---------------------------------------------------------------------------
// Jaro / Jaro-Winkler

TEST(JaroTest, IdenticalStrings) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("martha", "martha"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
}

TEST(JaroTest, CompletelyDifferent) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, EmptyVsNonEmpty) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
}

TEST(JaroTest, ClassicMarthaMarhta) {
  // The canonical example: Jaro(MARTHA, MARHTA) = 0.944...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
}

TEST(JaroTest, ClassicDwayneDuane) {
  EXPECT_NEAR(JaroSimilarity("dwayne", "duane"), 0.8222, 1e-3);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("dixon", "dicksonx");
  double jw = JaroWinklerSimilarity("dixon", "dicksonx");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.8133, 1e-3);
}

TEST(JaroWinklerTest, Symmetry) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("kesler", "kessler"),
                   JaroWinklerSimilarity("kessler", "kesler"));
}

TEST(JaroWinklerTest, BoundedByOne) {
  EXPECT_LE(JaroWinklerSimilarity("aaaa", "aaaa"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("aaaa", "aaaa"), 1.0);
}

TEST(JaroWinklerTest, TransliterationVariantsScoreHigh) {
  EXPECT_GT(JaroWinklerSimilarity("szwarc", "shvarts"), 0.6);
  EXPECT_GT(JaroWinklerSimilarity("kaminski", "kaminsky"), 0.9);
}

// ---------------------------------------------------------------------------
// Q-grams

TEST(QGramTest, PaddedBigrams) {
  auto grams = ExtractQGrams("ab", 2);
  // "#ab#" -> {"#a", "ab", "b#"}
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "#a");
  EXPECT_EQ(grams[1], "ab");
  EXPECT_EQ(grams[2], "b#");
}

TEST(QGramTest, UnigramsAreCharacters) {
  auto grams = ExtractQGrams("abc", 1);
  ASSERT_EQ(grams.size(), 3u);
}

TEST(QGramTest, NoPadShortString) {
  auto grams = ExtractQGramsNoPad("a", 3);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "a");
}

TEST(QGramTest, ExtendedContainsWholeString) {
  auto keys = ExtractExtendedQGrams("abcd", 2, 0.8);
  bool has_whole = false;
  for (const auto& k : keys) {
    if (k == "abbccd") has_whole = true;  // concatenated bigrams
  }
  EXPECT_TRUE(has_whole);
}

// ---------------------------------------------------------------------------
// Jaccard

TEST(JaccardTest, IdsBasics) {
  EXPECT_DOUBLE_EQ(JaccardOfIds({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardOfIds({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfIds({1}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfIds({1, 2}, {1, 2}), 1.0);
}

TEST(JaccardTest, IdsDeduplicates) {
  EXPECT_DOUBLE_EQ(JaccardOfIds({1, 1, 2}, {2, 2, 1}), 1.0);
}

TEST(JaccardTest, SortedIdsMatchesUnsorted) {
  std::vector<uint32_t> a = {1, 5, 9};
  std::vector<uint32_t> b = {5, 9, 11};
  EXPECT_DOUBLE_EQ(JaccardOfSortedIds(a, b), JaccardOfIds(a, b));
}

TEST(JaccardTest, QGramIdentical) {
  EXPECT_DOUBLE_EQ(QGramJaccard("foa", "foa"), 1.0);
}

TEST(JaccardTest, QGramSimilarNames) {
  double s = QGramJaccard("foa", "foy");
  EXPECT_GT(s, 0.2);
  EXPECT_LT(s, 1.0);
}

TEST(JaccardTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("john harris", "john"), 0.5);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "b a"), 1.0);
}

// ---------------------------------------------------------------------------
// Property sweeps: similarity functions stay in [0, 1], are symmetric and
// reflexive across a corpus of name pairs. The parameters are std::string,
// not const char*: gtest prints a char pointer with its address, which would
// put an ASLR-dependent value into every discovered test name.

using NamePair = std::pair<std::string, std::string>;

class SimilarityPropertyTest : public ::testing::TestWithParam<NamePair> {};

TEST_P(SimilarityPropertyTest, RangeSymmetryReflexivity) {
  auto [a, b] = GetParam();
  for (auto fn : {+[](const std::string& x, const std::string& y) {
                    return JaroWinklerSimilarity(x, y);
                  },
                  +[](const std::string& x, const std::string& y) {
                    return LevenshteinSimilarity(x, y);
                  },
                  +[](const std::string& x, const std::string& y) {
                    return QGramJaccard(x, y);
                  }}) {
    double s_ab = fn(a, b);
    double s_ba = fn(b, a);
    EXPECT_GE(s_ab, 0.0);
    EXPECT_LE(s_ab, 1.0);
    EXPECT_DOUBLE_EQ(s_ab, s_ba);
    EXPECT_DOUBLE_EQ(fn(a, a), 1.0);
    EXPECT_DOUBLE_EQ(fn(b, b), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamePairs, SimilarityPropertyTest,
    ::testing::Values(NamePair("guido", "guido"), NamePair("foa", "foy"),
                      NamePair("kesler", "kessler"),
                      NamePair("avraham", "avrum"),
                      NamePair("szwarc", "shvarts"),
                      NamePair("bella", "della"),
                      NamePair("capelluto", "capeluto"), NamePair("x", "yz"),
                      NamePair("torino", "turin")));

}  // namespace
}  // namespace yver::text
