#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/check.h"
#include "util/flags.h"

namespace p2p::util {
namespace {

FlagParser Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(Flags, EqualsForm) {
  auto f = Make({"--name=val", "--n=42", "--x=2.5"});
  EXPECT_EQ(f.GetString("name", ""), "val");
  EXPECT_EQ(f.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0.0), 2.5);
}

TEST(Flags, SpaceForm) {
  auto f = Make({"--name", "val", "--n", "7"});
  EXPECT_EQ(f.GetString("name", ""), "val");
  EXPECT_EQ(f.GetInt("n", 0), 7);
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = Make({});
  EXPECT_EQ(f.GetString("s", "fallback"), "fallback");
  EXPECT_EQ(f.GetInt("i", -3), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 1.5), 1.5);
  EXPECT_TRUE(f.GetBool("b", true));
  EXPECT_FALSE(f.Has("s"));
}

TEST(Flags, BooleanForms) {
  auto f = Make({"--on", "--yes=true", "--no=false", "--off", "0"});
  EXPECT_TRUE(f.GetBool("on", false));
  EXPECT_TRUE(f.GetBool("yes", false));
  EXPECT_FALSE(f.GetBool("no", true));
  EXPECT_FALSE(f.GetBool("off", true));  // "--off 0"
}

TEST(Flags, PositionalArguments) {
  auto f = Make({"cmd", "--k=1", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "cmd");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, BadIntThrows) {
  auto f = Make({"--n=abc"});
  EXPECT_THROW(f.GetInt("n", 0), CheckError);
}

TEST(Flags, BadDoubleThrows) {
  auto f = Make({"--x=zzz"});
  EXPECT_THROW(f.GetDouble("x", 0.0), CheckError);
}

TEST(Flags, BadBoolThrows) {
  auto f = Make({"--b=maybe"});
  EXPECT_THROW(f.GetBool("b", false), CheckError);
}

TEST(Flags, UnknownFlagDetection) {
  auto f = Make({"--known=1", "--mystery=2"});
  f.GetInt("known", 0);
  const auto unknown = f.UnknownFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "mystery");
}

TEST(Flags, RejectUnknownPassesWhenEveryFlagWasRead) {
  auto f = Make({"cmd", "--known=1", "--switch"});
  f.GetInt("known", 0);
  f.GetBool("switch", false);
  f.GetString("unused-default", "x");  // registered but not supplied: fine
  EXPECT_NO_THROW(f.RejectUnknown());
}

TEST(Flags, RejectUnknownNamesEveryUnknownFlag) {
  auto f = Make({"--known=1", "--mystery=2", "--help"});
  f.GetInt("known", 0);
  try {
    f.RejectUnknown();
    FAIL() << "unknown flags were accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--mystery"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
    EXPECT_EQ(what.find("--known"), std::string::npos) << what;
  }
}

TEST(Flags, RejectUnknownSeesOnlyReadsMadeBeforeIt) {
  // A flag read after the check counts as unknown at the check: commands
  // must read every flag up front.
  auto f = Make({"--late=3"});
  EXPECT_THROW(f.RejectUnknown(), CheckError);
  EXPECT_EQ(f.GetInt("late", 0), 3);
  EXPECT_NO_THROW(f.RejectUnknown());
}

TEST(Flags, HelpListsRegistrations) {
  auto f = Make({});
  f.GetInt("alpha", 5, "the alpha knob");
  f.GetString("beta", "x");
  const std::string help = f.Help();
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("the alpha knob"), std::string::npos);
  EXPECT_NE(help.find("--beta"), std::string::npos);
}

TEST(Flags, NegativeNumbersAsValues) {
  auto f = Make({"--n=-5", "--d=-2.5"});
  EXPECT_EQ(f.GetInt("n", 0), -5);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 0.0), -2.5);
}

TEST(Flags, ProgramName) {
  auto f = Make({});
  EXPECT_EQ(f.program(), "prog");
}

}  // namespace
}  // namespace p2p::util
