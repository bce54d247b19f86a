#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string_view>

#include "base/error.hpp"
#include "base/hash.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "base/watchdog.hpp"

namespace relsched {
namespace {

TEST(Strings, Join) {
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(join(std::vector<std::string>{"a"}, ","), "a");
  EXPECT_EQ(join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
}

TEST(Strings, Cat) {
  EXPECT_EQ(cat("x", 1, "y", 2.5), "x1y2.5");
  EXPECT_EQ(cat(), "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");  // never truncates
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("hello", "lo"));
  EXPECT_FALSE(starts_with("he", "hello"));
}

// Published FNV-1a 64-bit test vectors: the empty input hashes to the
// offset basis itself.
TEST(Hash, Fnv1a64MatchesReferenceVectors) {
  using std::string_view_literals::operator""sv;
  EXPECT_EQ(base::kFnv1a64Seed, 0xcbf29ce484222325ULL);
  EXPECT_EQ(base::fnv1a64(""sv), 0xcbf29ce484222325ULL);
  EXPECT_EQ(base::fnv1a64("a"sv), 0xaf63dc4c8601ec8cULL);
  // Chaining over chunks equals hashing the concatenation.
  EXPECT_EQ(base::fnv1a64("bc"sv, base::fnv1a64("a"sv)),
            base::fnv1a64("abc"sv));
}

TEST(TextTable, AlignsColumnsAndRules) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_rule();
  table.add_row({"b", "10000"});
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  // Header present, first column left-aligned, second right-aligned.
  EXPECT_NE(text.find("| name  |"), std::string::npos);
  EXPECT_NE(text.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 10000 |"), std::string::npos);
  // Four rule lines: top, under header, inserted, bottom.
  std::size_t rules = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TextTable, ShortRowsPadWithEmptyCells) {
  TextTable table;
  table.set_header({"a", "b", "c"});
  table.add_row({"x"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("| x | "), std::string::npos);
}

TEST(Check, ThrowsApiErrorWithContext) {
  try {
    RELSCHED_CHECK(1 == 2, "the message");
    FAIL() << "expected throw";
  } catch (const ApiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_base.cpp"), std::string::npos);
  }
}

TEST(Watchdog, InertByDefault) {
  base::CancelToken token;  // default: can never be cancelled
  token.request_cancel();
  EXPECT_FALSE(token.cancelled());

  base::Watchdog dog;
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(dog.charge());
  EXPECT_FALSE(dog.stopped());
}

TEST(Watchdog, CancellationHonouredWithinOneQuantum) {
  base::CancelToken token = base::CancelToken::make();
  base::Watchdog dog(token, base::Watchdog::kNoDeadline, 0);
  for (int i = 0; i < 100; ++i) ASSERT_FALSE(dog.charge());
  token.request_cancel();
  // The contract: a stop request is honoured within kPollQuantum more
  // charged steps, never later.
  std::uint64_t extra = 0;
  while (!dog.charge()) {
    ASSERT_LE(++extra, base::Watchdog::kPollQuantum);
  }
  EXPECT_TRUE(dog.stopped());
  EXPECT_EQ(dog.why(), base::Watchdog::Stop::kCancelled);
  EXPECT_STREQ(dog.reason(), "cancellation requested");
  EXPECT_TRUE(dog.charge());  // sticky once tripped
}

TEST(Watchdog, ExpiredDeadlineTripsAtConstruction) {
  // A pre-existing stop condition must not wait out the first poll
  // quantum: a tiny computation that never charges kPollQuantum steps
  // still has to honour --deadline-ms 0.
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  base::Watchdog dog(base::CancelToken{}, past, 0);
  EXPECT_TRUE(dog.stopped());
  EXPECT_EQ(dog.why(), base::Watchdog::Stop::kDeadline);
  EXPECT_STREQ(dog.reason(), "deadline exceeded");

  base::CancelToken cancelled = base::CancelToken::make();
  cancelled.request_cancel();
  base::Watchdog dog2(cancelled, base::Watchdog::kNoDeadline, 0);
  EXPECT_TRUE(dog2.stopped());
  EXPECT_EQ(dog2.why(), base::Watchdog::Stop::kCancelled);
}

TEST(Watchdog, RemainingReportsShrinkingBudget) {
  // No deadline: the budget is unbounded.
  base::Watchdog unbounded(base::CancelToken{}, base::Watchdog::kNoDeadline,
                           0);
  EXPECT_EQ(unbounded.remaining(),
            base::Watchdog::Clock::duration::max());

  // A live deadline: remaining is positive and never exceeds the
  // original budget (it only shrinks).
  const auto budget = std::chrono::seconds(60);
  base::Watchdog live(base::CancelToken{},
                      base::Watchdog::Clock::now() + budget, 0);
  const auto left = live.remaining();
  EXPECT_GT(left, base::Watchdog::Clock::duration::zero());
  EXPECT_LE(left, budget);

  // A passed deadline clamps to zero rather than going negative.
  base::Watchdog expired(
      base::CancelToken{},
      base::Watchdog::Clock::now() - std::chrono::milliseconds(1), 0);
  EXPECT_EQ(expired.remaining(), base::Watchdog::Clock::duration::zero());

  // Any stop condition -- not just the deadline -- zeroes the budget:
  // nested work handed a stopped watchdog's remainder must not run.
  base::CancelToken cancelled = base::CancelToken::make();
  cancelled.request_cancel();
  base::Watchdog stopped(cancelled, base::Watchdog::Clock::now() + budget,
                         0);
  EXPECT_EQ(stopped.remaining(), base::Watchdog::Clock::duration::zero());
}

TEST(Watchdog, StepLimitIsExact) {
  base::Watchdog dog(base::CancelToken{}, base::Watchdog::kNoDeadline, 5);
  EXPECT_FALSE(dog.charge(5));  // exactly at the limit: still fine
  EXPECT_TRUE(dog.charge());    // one past: tripped
  EXPECT_EQ(dog.why(), base::Watchdog::Stop::kStepLimit);
  EXPECT_STREQ(dog.reason(), "iteration budget exhausted");
}

}  // namespace
}  // namespace relsched
