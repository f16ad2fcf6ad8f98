// Tests for the RPC layer: wire format, dispatcher, in-process and
// Unix-domain-socket transports.
#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/trace.h"
#include "src/rpc/inproc.h"
#include "src/rpc/socket.h"
#include "src/rpc/wire.h"

namespace aerie {
namespace {

TEST(WireTest, RoundTripScalarsAndStrings) {
  WireBuffer buf;
  buf.AppendU8(7);
  buf.AppendU16(300);
  buf.AppendU32(70000);
  buf.AppendU64(1ull << 40);
  buf.AppendI64(-12345);
  buf.AppendString("hello world");
  buf.AppendString("");

  WireReader r(buf.data());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU16(), 300);
  EXPECT_EQ(*r.ReadU32(), 70000u);
  EXPECT_EQ(*r.ReadU64(), 1ull << 40);
  EXPECT_EQ(*r.ReadI64(), -12345);
  EXPECT_EQ(*r.ReadString(), "hello world");
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, ScalarsAreLittleEndianOnTheWire) {
  WireBuffer buf;
  buf.AppendU16(0x1234);
  buf.AppendU32(0xA1B2C3D4u);
  buf.AppendU64(0x1122334455667788ull);
  const uint8_t want[] = {0x34, 0x12,                    // u16
                          0xD4, 0xC3, 0xB2, 0xA1,        // u32
                          0x88, 0x77, 0x66, 0x55, 0x44,  // u64...
                          0x33, 0x22, 0x11};
  ASSERT_EQ(buf.size(), sizeof(want));
  for (size_t i = 0; i < sizeof(want); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(buf.data()[i]), want[i]) << "byte " << i;
  }
  WireReader r(buf.data());
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xA1B2C3D4u);
  EXPECT_EQ(*r.ReadU64(), 0x1122334455667788ull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TraceContextRoundTrips) {
  // Absent context: one zero flags byte.
  WireBuffer empty;
  AppendTraceContext(empty, WireTraceContext{});
  EXPECT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty.data()[0], '\0');
  WireReader er(empty.data());
  auto decoded_empty = ReadTraceContext(er);
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_FALSE(decoded_empty->present());

  // Present context: flags byte + two u64s.
  WireBuffer buf;
  AppendTraceContext(buf, WireTraceContext{0xDEADBEEFull, 77});
  EXPECT_EQ(buf.size(), 17u);
  WireReader r(buf.data());
  auto decoded = ReadTraceContext(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->present());
  EXPECT_EQ(decoded->trace_id, 0xDEADBEEFull);
  EXPECT_EQ(decoded->span_id, 77u);
  EXPECT_TRUE(r.AtEnd());

  // Truncated present context is rejected.
  WireReader bad(std::string_view(buf.data().data(), 5));
  EXPECT_FALSE(ReadTraceContext(bad).ok());
}

TEST(WireTest, ShortBufferRejected) {
  WireBuffer buf;
  buf.AppendU32(5);
  WireReader r(buf.data());
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(WireTest, OversizedStringLengthRejected) {
  WireBuffer buf;
  buf.AppendU32(1000);  // claims 1000 bytes, provides none
  WireReader r(buf.data());
  EXPECT_EQ(r.ReadString().status().code(), ErrorCode::kInvalidArgument);
}

TEST(DispatcherTest, RoutesByMethodAndPassesClientId) {
  RpcDispatcher dispatcher;
  dispatcher.Register(
      1, [](uint64_t client, std::string_view req) -> Result<std::string> {
        return std::to_string(client) + ":" + std::string(req);
      });
  auto resp = dispatcher.Dispatch(42, 1, "ping");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "42:ping");
  EXPECT_EQ(dispatcher.Dispatch(42, 99, "x").code(),
            ErrorCode::kNotSupported);
}

TEST(InprocTest, CallsAndErrorsPropagate) {
  RpcDispatcher dispatcher;
  dispatcher.Register(
      5, [](uint64_t, std::string_view req) -> Result<std::string> {
        if (req == "fail") {
          return Status(ErrorCode::kBusy, "try later");
        }
        return std::string(req) + "!";
      });
  InprocTransport t(&dispatcher, 7);
  auto ok = t.Call(5, "hi");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "hi!");
  EXPECT_EQ(t.Call(5, "fail").code(), ErrorCode::kBusy);
  EXPECT_EQ(t.calls_made(), 2u);
  EXPECT_EQ(t.client_id(), 7u);
}

// Inproc dispatch runs the handler on the caller's thread, under the
// caller's span chain. In spans mode one Call from inside a client span
// must put the handler span in the client's trace as a child of the
// rpc.<method> span, keep the handler's time out of that span's self time,
// and leave the caller's trace context as it found it.
TEST(InprocTest, TraceContextAndSelfTimeFollowTheSpanChain) {
  const obs::Mode prev_mode = obs::CurrentMode();
  obs::SetMode(obs::Mode::kSpans);
  obs::ResetAll();
  constexpr uint32_t kMethod = 0x7e01;
  constexpr uint64_t kHandlerSpinNs = 2'000'000;
  obs::SetRpcMethodName(kMethod, "t_inproc");

  RpcDispatcher dispatcher;
  dispatcher.Register(
      kMethod, [](uint64_t, std::string_view) -> Result<std::string> {
        AERIE_SPAN("tfs", "t_inproc_handler");
        SpinDelayNanos(kHandlerSpinNs);
        const obs::TraceContext ctx = obs::CurrentTraceContext();
        WireBuffer out;
        out.AppendU64(ctx.trace_id);
        out.AppendU64(ctx.span_id);
        out.AppendU64(ctx.parent_id);
        return out.Release();
      });
  InprocTransport t(&dispatcher, 7);

  obs::TraceContext before;
  obs::TraceContext after;
  Result<std::string> resp = Status(ErrorCode::kUnavailable, "not called");
  {
    AERIE_SPAN("pxfs", "t_inproc_client");
    before = obs::CurrentTraceContext();
    resp = t.Call(kMethod, "trace me");
    after = obs::CurrentTraceContext();
  }
  ASSERT_TRUE(resp.ok());
  WireReader r(*resp);
  const uint64_t handler_trace_id = *r.ReadU64();
  const uint64_t handler_span_id = *r.ReadU64();
  const uint64_t handler_parent_id = *r.ReadU64();

  uint64_t rpc_span_id = 0;
  uint64_t rpc_parent_id = 0;
  for (const obs::TraceEventView& e : obs::CollectTraceEvents()) {
    if (e.kind == obs::TraceEventKind::kSpanEnd &&
        std::string_view(e.name) == "rpc.t_inproc") {
      rpc_span_id = e.span_id;
      rpc_parent_id = e.parent_id;
    }
  }
  ASSERT_TRUE(before.valid());
  ASSERT_NE(rpc_span_id, 0u);
  EXPECT_EQ(rpc_parent_id, before.span_id);
  EXPECT_EQ(handler_trace_id, before.trace_id);
  EXPECT_EQ(handler_parent_id, rpc_span_id);
  EXPECT_NE(handler_span_id, rpc_span_id);

  // rpc.<method> self time is its wall time minus the handler span's.
  const obs::SpanStat& rpc = obs::RpcMethodStatsFor(kMethod).span;
  const obs::SpanStat& handler =
      obs::Registry::Instance().GetSpan("tfs.t_inproc_handler");
  ASSERT_EQ(rpc.count(), 1u);
  ASSERT_EQ(handler.count(), 1u);
  EXPECT_GE(handler.total_ns(), kHandlerSpinNs);
  EXPECT_EQ(rpc.self_ns(), rpc.total_ns() - handler.total_ns());

  EXPECT_EQ(after.trace_id, before.trace_id);
  EXPECT_EQ(after.span_id, before.span_id);
  EXPECT_EQ(after.parent_id, before.parent_id);

  obs::SetMode(prev_mode);
  obs::ResetAll();
}

class UdsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/aerie_rpc_test.sock";
    dispatcher_.Register(
        1, [](uint64_t client, std::string_view req) -> Result<std::string> {
          return std::to_string(client) + "/" + std::string(req);
        });
    dispatcher_.Register(
        2, [](uint64_t, std::string_view) -> Result<std::string> {
          return Status(ErrorCode::kNotFound, "nothing here");
        });
    auto server = UdsServer::Start(path_, &dispatcher_);
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
  }

  std::string path_;
  RpcDispatcher dispatcher_;
  std::unique_ptr<UdsServer> server_;
};

TEST_F(UdsTest, CallOverSocket) {
  auto transport = UdsTransport::Connect(path_);
  ASSERT_TRUE(transport.ok());
  auto resp = (*transport)->Call(1, "hello");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, std::to_string((*transport)->client_id()) + "/hello");
}

TEST_F(UdsTest, ErrorStatusRoundTrips) {
  auto transport = UdsTransport::Connect(path_);
  ASSERT_TRUE(transport.ok());
  auto resp = (*transport)->Call(2, "");
  EXPECT_EQ(resp.code(), ErrorCode::kNotFound);
}

TEST_F(UdsTest, DistinctClientsGetDistinctSessionIds) {
  auto a = UdsTransport::Connect(path_);
  auto b = UdsTransport::Connect(path_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->client_id(), (*b)->client_id());
}

TEST_F(UdsTest, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kCallsEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto transport = UdsTransport::Connect(path_);
      if (!transport.ok()) {
        failures++;
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        auto resp = (*transport)->Call(1, "m" + std::to_string(i));
        const std::string want = std::to_string((*transport)->client_id()) +
                                 "/m" + std::to_string(i);
        if (!resp.ok() || *resp != want) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// The server span must carry the client's trace_id: the transport encodes
// the caller's context into the request frame and the server installs it
// around dispatch, so a handler-side AERIE_SPAN joins the client's trace.
TEST_F(UdsTest, TraceContextPropagatesToServerSpans) {
  const obs::Mode prev_mode = obs::CurrentMode();
  obs::SetMode(obs::Mode::kSpans);

  dispatcher_.Register(
      7, [](uint64_t, std::string_view) -> Result<std::string> {
        AERIE_SPAN("tfs", "t_probe");  // the server-side span under test
        const obs::TraceContext ctx = obs::CurrentTraceContext();
        WireBuffer out;
        out.AppendU64(ctx.trace_id);
        out.AppendU64(ctx.span_id);
        out.AppendU64(ctx.parent_id);
        return out.Release();
      });

  auto transport = UdsTransport::Connect(path_);
  ASSERT_TRUE(transport.ok());

  obs::TraceContext client_ctx;
  Result<std::string> resp = Status(ErrorCode::kUnavailable, "not called");
  {
    AERIE_SPAN("pxfs", "t_client_op");
    client_ctx = obs::CurrentTraceContext();
    resp = (*transport)->Call(7, "trace me");
  }
  ASSERT_TRUE(resp.ok());
  WireReader r(*resp);
  const uint64_t server_trace_id = *r.ReadU64();
  const uint64_t server_span_id = *r.ReadU64();
  const uint64_t server_parent_id = *r.ReadU64();

  ASSERT_TRUE(client_ctx.valid());
  EXPECT_EQ(server_trace_id, client_ctx.trace_id);
  EXPECT_NE(server_span_id, client_ctx.span_id);
  // The handler span's parent is the rpc.<method> span the transport opened
  // inside the client op — a descendant of the client span, not 0.
  EXPECT_NE(server_parent_id, 0u);
  EXPECT_NE(server_parent_id, server_span_id);

  obs::SetMode(prev_mode);
  obs::ResetAll();
}

// With tracing off the frame carries a single zero flags byte and the
// server must see an empty context.
TEST_F(UdsTest, NoTraceContextWhenSpansOff) {
  const obs::Mode prev_mode = obs::CurrentMode();
  obs::SetMode(obs::Mode::kCounters);

  dispatcher_.Register(
      8, [](uint64_t, std::string_view) -> Result<std::string> {
        WireBuffer out;
        out.AppendU64(obs::CurrentTraceContext().trace_id);
        return out.Release();
      });
  auto transport = UdsTransport::Connect(path_);
  ASSERT_TRUE(transport.ok());
  auto resp = (*transport)->Call(8, "");
  ASSERT_TRUE(resp.ok());
  WireReader r(*resp);
  EXPECT_EQ(*r.ReadU64(), 0u);

  obs::SetMode(prev_mode);
}

TEST_F(UdsTest, LargePayloadRoundTrips) {
  dispatcher_.Register(
      3, [](uint64_t, std::string_view req) -> Result<std::string> {
        return std::string(req);
      });
  auto transport = UdsTransport::Connect(path_);
  ASSERT_TRUE(transport.ok());
  std::string big(1 << 20, 'z');
  auto resp = (*transport)->Call(3, big);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, big);
}

}  // namespace
}  // namespace aerie
