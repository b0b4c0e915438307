#include "sessions/log_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "temp_dir.hpp"

namespace misuse {
namespace {

SessionStore sample_store() {
  ActionVocab v;
  SessionStore store(std::move(v));
  Session s1;
  s1.id = 10;
  s1.user = 3;
  s1.start_minute = 120;
  s1.actions = {store.vocab().intern("ActionSearchUser"), store.vocab().intern("ActionDisplayUser")};
  store.add(std::move(s1));
  Session s2;
  s2.id = 11;
  s2.user = 4;
  s2.start_minute = 500;
  s2.actions = {store.vocab().intern("ActionDeleteUser")};
  store.add(std::move(s2));
  return store;
}

TEST(LogIo, WriterEmitsHeaderAndRows) {
  std::ostringstream out;
  write_session_log(sample_store(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# misusedet session log v1"), std::string::npos);
  EXPECT_NE(text.find("10\t3\t120\tActionSearchUser,ActionDisplayUser"), std::string::npos);
  EXPECT_NE(text.find("11\t4\t500\tActionDeleteUser"), std::string::npos);
}

TEST(LogIo, RoundTripPreservesEverything) {
  const SessionStore original = sample_store();
  std::stringstream buf;
  write_session_log(original, buf);
  SessionStore loaded;
  read_session_log(buf, loaded);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Session& a = original.at(i);
    const Session& b = loaded.at(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.start_minute, b.start_minute);
    ASSERT_EQ(a.actions.size(), b.actions.size());
    for (std::size_t j = 0; j < a.actions.size(); ++j) {
      EXPECT_EQ(original.vocab().name(a.actions[j]), loaded.vocab().name(b.actions[j]));
    }
  }
}

TEST(LogIo, SkipsCommentsAndBlankLines) {
  std::stringstream in("# comment\n\n1\t2\t3\tActionA\n# another\n");
  SessionStore store;
  read_session_log(in, store);
  EXPECT_EQ(store.size(), 1u);
}

TEST(LogIo, RejectsWrongFieldCount) {
  std::stringstream in("1\t2\tActionA\n");
  SessionStore store;
  EXPECT_THROW(read_session_log(in, store), LogParseError);
}

TEST(LogIo, RejectsNonNumericId) {
  std::stringstream in("abc\t2\t3\tActionA\n");
  SessionStore store;
  EXPECT_THROW(read_session_log(in, store), LogParseError);
}

TEST(LogIo, RejectsEmptyActionName) {
  std::stringstream in("1\t2\t3\tActionA,,ActionB\n");
  SessionStore store;
  EXPECT_THROW(read_session_log(in, store), LogParseError);
}

TEST(LogIo, ErrorMessageIncludesLineNumber) {
  std::stringstream in("1\t2\t3\tActionA\nbad line here\n");
  SessionStore store;
  try {
    read_session_log(in, store);
    FAIL() << "expected LogParseError";
  } catch (const LogParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(LogIo, EmptyActionsFieldYieldsEmptySession) {
  std::stringstream in("1\t2\t3\t\n");
  SessionStore store;
  read_session_log(in, store);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.at(0).length(), 0u);
}

TEST(LogIo, SharedVocabAcrossSessions) {
  std::stringstream in("1\t1\t1\tActionA,ActionB\n2\t1\t2\tActionB,ActionA\n");
  SessionStore store;
  read_session_log(in, store);
  EXPECT_EQ(store.vocab().size(), 2u);
  EXPECT_EQ(store.at(0).actions[0], store.at(1).actions[1]);
}

TEST(LogIo, FileRoundTrip) {
  const std::string path = misuse::testing_support::test_temp_path("misuse_log_io_test.log");
  write_session_log_file(sample_store(), path);
  const SessionStore loaded = read_session_log_file(path);
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(LogIo, MissingFileThrows) {
  EXPECT_THROW(read_session_log_file("/nonexistent/path/x.log"), LogParseError);
}

}  // namespace
}  // namespace misuse
