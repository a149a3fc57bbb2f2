// Tests for the POSIX socket wrappers under the server front end
// (docs/SERVER.md): listener lifecycle on both transports, the line
// reader's framing rules, and cross-thread unblocking.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/socket.h"

namespace sgb {
namespace {

std::string UniqueUnixPath(const char* tag) {
  return "/tmp/sgb_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SocketTest, TcpListenConnectRoundtrip) {
  auto listener = Listener::ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_NE(listener.value().port(), 0);

  auto client = ConnectTcp(listener.value().port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server_side = listener.value().Accept();
  ASSERT_TRUE(server_side.ok()) << server_side.status().ToString();

  ASSERT_TRUE(client.value().WriteAll("hello wire\n").ok());
  LineReader reader(&server_side.value());
  std::string line;
  auto more = reader.ReadLine(&line);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  ASSERT_TRUE(more.value());
  EXPECT_EQ(line, "hello wire");
}

TEST(SocketTest, UnixListenConnectRoundtrip) {
  const std::string path = UniqueUnixPath("sock_rt");
  auto listener = Listener::ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server_side = listener.value().Accept();
  ASSERT_TRUE(server_side.ok());

  ASSERT_TRUE(server_side.value().WriteAll("pong\n").ok());
  LineReader reader(&client.value());
  std::string line;
  auto more = reader.ReadLine(&line);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(line, "pong");
}

TEST(SocketTest, ListenerReplacesStaleUnixSocketFile) {
  const std::string path = UniqueUnixPath("sock_stale");
  {
    auto first = Listener::ListenUnix(path);
    ASSERT_TRUE(first.ok());
  }
  // Even if the previous owner left the socket file behind, a new
  // listener binds cleanly.
  auto second = Listener::ListenUnix(path);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
}

TEST(SocketTest, LineReaderSplitsPipelinedLines) {
  auto listener = Listener::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  auto client = ConnectTcp(listener.value().port());
  ASSERT_TRUE(client.ok());
  auto server_side = listener.value().Accept();
  ASSERT_TRUE(server_side.ok());

  // Three commands in one write, the last with a CRLF terminator.
  ASSERT_TRUE(client.value().WriteAll("one\ntwo\nthree\r\n").ok());
  client.value().Shutdown();

  LineReader reader(&server_side.value());
  std::string line;
  for (const char* expected : {"one", "two", "three"}) {
    auto more = reader.ReadLine(&line);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(more.value());
    EXPECT_EQ(line, expected);
  }
  auto eof = reader.ReadLine(&line);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
}

TEST(SocketTest, LineReaderRejectsPartialLineAtEof) {
  auto listener = Listener::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  auto client = ConnectTcp(listener.value().port());
  ASSERT_TRUE(client.ok());
  auto server_side = listener.value().Accept();
  ASSERT_TRUE(server_side.ok());

  ASSERT_TRUE(client.value().WriteAll("terminated\nunterminated").ok());
  client.value().Close();

  LineReader reader(&server_side.value());
  std::string line;
  auto more = reader.ReadLine(&line);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(line, "terminated");

  // A line cut off mid-way by the peer vanishing is a framing error, not
  // a command — the protocol never executes half-received statements.
  auto torn = reader.ReadLine(&line);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kIoError);
}

TEST(SocketTest, LineReaderRejectsOversizedLine) {
  auto listener = Listener::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  auto client = ConnectTcp(listener.value().port());
  ASSERT_TRUE(client.ok());
  auto server_side = listener.value().Accept();
  ASSERT_TRUE(server_side.ok());

  ASSERT_TRUE(client.value().WriteAll(std::string(256, 'x')).ok());
  LineReader reader(&server_side.value());
  std::string line;
  auto more = reader.ReadLine(&line, /*max_line_bytes=*/64);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), Status::Code::kIoError);
}

// The stop protocol Server::Stop follows: Shutdown() wakes the blocked
// Accept() without touching the descriptor it reads, and Close() runs only
// after the accepting thread has been joined.
TEST(SocketTest, ShutdownUnblocksConcurrentAccept) {
  auto listener = Listener::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  Status accept_status = Status::OK();
  std::thread acceptor([&] {
    accept_status = listener.value().Accept().status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.value().Shutdown();
  acceptor.join();
  listener.value().Close();
  EXPECT_FALSE(accept_status.ok());
  EXPECT_FALSE(listener.value().valid());
}

}  // namespace
}  // namespace sgb
