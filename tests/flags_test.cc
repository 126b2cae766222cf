// util::Flags, the yver_cli flag parser: numeric values parse strictly,
// and a flag the subcommand never reads exits 2 naming it instead of
// running with defaults.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"

namespace yver::util {
namespace {

// argv for `yver_cli <args...>`; the Flags start at index 2.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& arg : args_) ptrs_.push_back(arg.data());
  }
  Flags Parse() {
    return Flags(static_cast<int>(ptrs_.size()), ptrs_.data(), 2);
  }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, ReadsValuesAndBooleans) {
  Argv argv({"yver_cli", "serve", "--in", "x.csv", "--live", "--max-batch",
             "3"});
  Flags flags = argv.Parse();
  EXPECT_EQ(flags.Require("in"), "x.csv");
  EXPECT_TRUE(flags.Has("live"));
  EXPECT_FALSE(flags.Has("json"));
  EXPECT_EQ(flags.Value<uint32_t>("max-batch", 64), 3u);
  EXPECT_EQ(flags.Value<uint32_t>("port", 7), 7u);
  flags.RejectUnread();  // every given flag was read: no exit
}

TEST(FlagsDeathTest, UnreadFlagsExitTwoNamingEachFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Argv argv({"yver_cli", "serve", "--in", "x.csv", "--no-cache",
             "--max-bach", "3"});
  Flags flags = argv.Parse();
  EXPECT_EQ(flags.Get("in"), "x.csv");
  uint32_t max_batch = 64;
  flags.Parse("max-batch", &max_batch);
  EXPECT_EQ(max_batch, 64u);
  EXPECT_EXIT(flags.RejectUnread(), ::testing::ExitedWithCode(2),
              "unknown flag --max-bach.*\n.*unknown flag --no-cache");
}

TEST(FlagsDeathTest, MalformedNumbersExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Argv argv({"yver_cli", "serve", "--port", "70000", "--max-batch", "-1"});
  Flags flags = argv.Parse();
  uint16_t port = 0;
  EXPECT_EXIT(flags.Parse("port", &port), ::testing::ExitedWithCode(2),
              "invalid value for --port");
  uint32_t max_batch = 0;
  EXPECT_EXIT(flags.Parse("max-batch", &max_batch),
              ::testing::ExitedWithCode(2), "invalid value for --max-batch");
}

}  // namespace
}  // namespace yver::util
