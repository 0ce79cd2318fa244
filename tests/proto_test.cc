// Tests for argument marshalling, LRPC message framing, and the
// request→reply step the server stacks share (src/nic/server_step).
#include <gtest/gtest.h>

#include "src/net/headers.h"
#include "src/nic/server_step.h"
#include "src/proto/cipher.h"
#include "src/proto/dedup.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/random.h"

namespace lauberhorn {
namespace {

TEST(MarshalTest, ScalarRoundTrip) {
  MethodSignature sig{{WireType::kU8, WireType::kU16, WireType::kU32, WireType::kU64,
                       WireType::kI64, WireType::kF64}};
  const std::vector<WireValue> in = {
      WireValue::U8(0xab),         WireValue::U16(0xbeef), WireValue::U32(0xdeadbeef),
      WireValue::U64(0x0123456789abcdefULL), WireValue::I64(-42), WireValue::F64(3.25),
  };
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, in, buf));
  EXPECT_EQ(buf.size(), sig.EncodedSize(in));

  std::vector<WireValue> out;
  size_t consumed = 0;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out, &consumed));
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i]) << "arg " << i;
  }
  EXPECT_EQ(out[4].AsI64(), -42);
}

TEST(MarshalTest, BytesAndStringRoundTrip) {
  MethodSignature sig{{WireType::kBytes, WireType::kString}};
  const std::vector<WireValue> in = {
      WireValue::Bytes({0, 1, 2, 255}),
      WireValue::Str("hello lauberhorn"),
  };
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, in, buf));
  std::vector<WireValue> out;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
  EXPECT_EQ(out[0].bytes, in[0].bytes);
  EXPECT_EQ(out[1].str, "hello lauberhorn");
}

TEST(MarshalTest, SignatureMismatchRejected) {
  MethodSignature sig{{WireType::kU32}};
  std::vector<uint8_t> buf;
  EXPECT_FALSE(MarshalArgs(sig, std::vector<WireValue>{WireValue::U64(1)}, buf));
  EXPECT_FALSE(MarshalArgs(sig, std::vector<WireValue>{}, buf));
  EXPECT_TRUE(buf.empty());
}

TEST(MarshalTest, TruncatedInputRejected) {
  MethodSignature sig{{WireType::kU64}};
  std::vector<uint8_t> buf = {1, 2, 3};  // too short for a u64
  std::vector<WireValue> out;
  EXPECT_FALSE(UnmarshalArgs(sig, buf, out));
}

TEST(MarshalTest, OverlongLengthPrefixRejected) {
  MethodSignature sig{{WireType::kBytes}};
  std::vector<uint8_t> buf;
  PutU32Le(buf, 1000);  // claims 1000 bytes, provides 2
  buf.push_back(1);
  buf.push_back(2);
  std::vector<WireValue> out;
  EXPECT_FALSE(UnmarshalArgs(sig, buf, out));
}

TEST(MarshalTest, EmptySignature) {
  MethodSignature sig{};
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, {}, buf));
  EXPECT_TRUE(buf.empty());
  std::vector<WireValue> out;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
  EXPECT_TRUE(out.empty());
}

// Property: random values of random signatures round-trip bit-exact.
class MarshalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    MethodSignature sig;
    std::vector<WireValue> in;
    const size_t nargs = rng.UniformInt(0, 8);
    for (size_t i = 0; i < nargs; ++i) {
      const auto t = static_cast<WireType>(rng.UniformInt(1, 8));
      sig.args.push_back(t);
      switch (t) {
        case WireType::kU8:
          in.push_back(WireValue::U8(static_cast<uint8_t>(rng.Next())));
          break;
        case WireType::kU16:
          in.push_back(WireValue::U16(static_cast<uint16_t>(rng.Next())));
          break;
        case WireType::kU32:
          in.push_back(WireValue::U32(static_cast<uint32_t>(rng.Next())));
          break;
        case WireType::kU64:
          in.push_back(WireValue::U64(rng.Next()));
          break;
        case WireType::kI64:
          in.push_back(WireValue::I64(static_cast<int64_t>(rng.Next())));
          break;
        case WireType::kF64:
          in.push_back(WireValue::F64(rng.Uniform(-1e9, 1e9)));
          break;
        case WireType::kBytes: {
          std::vector<uint8_t> b(rng.UniformInt(0, 64));
          for (auto& x : b) {
            x = static_cast<uint8_t>(rng.Next());
          }
          in.push_back(WireValue::Bytes(std::move(b)));
          break;
        }
        case WireType::kString: {
          std::string s(rng.UniformInt(0, 32), 'x');
          for (auto& c : s) {
            c = static_cast<char>('a' + rng.UniformInt(0, 25));
          }
          in.push_back(WireValue::Str(std::move(s)));
          break;
        }
      }
    }
    std::vector<uint8_t> buf;
    ASSERT_TRUE(MarshalArgs(sig, in, buf));
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], in[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest, ::testing::Values(1, 5, 9, 42, 77));

TEST(RpcMessageTest, EncodeDecodeRoundTrip) {
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = 17;
  msg.method_id = 3;
  msg.request_id = 0xfeedfacecafebeefULL;
  msg.payload = {9, 8, 7};

  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  EXPECT_EQ(wire.size(), msg.WireSize());

  const auto decoded = DecodeRpcMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, MessageKind::kRequest);
  EXPECT_EQ(decoded->service_id, 17u);
  EXPECT_EQ(decoded->method_id, 3);
  EXPECT_EQ(decoded->request_id, 0xfeedfacecafebeefULL);
  EXPECT_EQ(decoded->payload, msg.payload);
}

TEST(RpcMessageTest, ResponseCarriesStatus) {
  RpcMessage msg;
  msg.kind = MessageKind::kResponse;
  msg.status = RpcStatus::kNoSuchMethod;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  const auto decoded = DecodeRpcMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, MessageKind::kResponse);
  EXPECT_EQ(decoded->status, RpcStatus::kNoSuchMethod);
}

TEST(RpcMessageTest, BadMagicRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[0] ^= 0xff;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, BadVersionRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[2] = 99;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, BadKindRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[3] = 0;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, TruncatedPayloadRejected) {
  RpcMessage msg;
  msg.payload.assign(100, 1);
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, EmptyInputRejected) {
  EXPECT_FALSE(DecodeRpcMessage(std::span<const uint8_t>{}).has_value());
}

// --- Shared server step --------------------------------------------------------

TEST(ServerStepTest, ReplyFrameSwapsAddressesAndMirrorsEcn) {
  struct Case {
    uint8_t request_ecn;
    uint8_t reply_ecn;
    bool echo;
  };
  const Case cases[] = {
      {kEcnNotEct, kEcnNotEct, false},
      {kEcnEct0, kEcnEct0, false},
      {kEcnCe, kEcnEct0, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.request_ecn));
    EthernetHeader eth;
    eth.src = {2, 0, 0, 0, 0, 1};
    eth.dst = {2, 0, 0, 0, 0, 2};
    Ipv4Header ip;
    ip.src = MakeIpv4(10, 0, 0, 1);
    ip.dst = MakeIpv4(10, 0, 0, 2);
    ip.ecn = c.request_ecn;
    UdpHeader udp;
    udp.src_port = 40000;
    udp.dst_port = 7000;
    RpcMessage response = ReplyTo(3, 4, 99);
    response.payload = {1, 2, 3};

    const Packet out = ReplyFrame(eth, ip, udp, response);
    const auto frame = ParseUdpFrame(out);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->eth.src, eth.dst);
    EXPECT_EQ(frame->eth.dst, eth.src);
    EXPECT_EQ(frame->ip.src, ip.dst);
    EXPECT_EQ(frame->ip.dst, ip.src);
    EXPECT_EQ(frame->udp.src_port, udp.dst_port);
    EXPECT_EQ(frame->udp.dst_port, udp.src_port);
    EXPECT_EQ(frame->ip.ecn, c.reply_ecn);
    const auto decoded = DecodeRpcMessage(frame->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, MessageKind::kResponse);
    EXPECT_EQ(decoded->request_id, 99u);
    EXPECT_EQ(decoded->payload, response.payload);
    EXPECT_EQ((decoded->flags & kLrpcFlagEcnEcho) != 0, c.echo);
  }
}

TEST(ServerStepTest, ShedReplyIsAnUnexecutedOverloadedResponse) {
  const RpcMessage shed = ReplyTo(3, 4, 99, RpcStatus::kOverloaded);
  EXPECT_EQ(shed.kind, MessageKind::kResponse);
  EXPECT_EQ(shed.status, RpcStatus::kOverloaded);
  EXPECT_EQ(shed.service_id, 3u);
  EXPECT_EQ(shed.method_id, 4u);
  EXPECT_EQ(shed.request_id, 99u);
  EXPECT_TRUE(shed.payload.empty());
}

TEST(ServerStepTest, InvokeMethodReportsStatusPayloadAndServiceTime) {
  ServiceDef service;
  service.service_id = 3;
  MethodDef& add_one = service.methods[1];
  add_one.method_id = 1;
  add_one.request_sig = MethodSignature{{WireType::kU64}};
  add_one.response_sig = MethodSignature{{WireType::kU64}};
  add_one.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1)};
  };
  add_one.SetFixedServiceTime(Microseconds(3));

  const std::vector<WireValue> request = {WireValue::U64(41)};
  const std::vector<WireValue> reply = {WireValue::U64(42)};
  std::vector<uint8_t> good_args;
  ASSERT_TRUE(MarshalArgs(add_one.request_sig, request, good_args));
  std::vector<uint8_t> answer;
  ASSERT_TRUE(MarshalArgs(add_one.response_sig, reply, answer));

  struct Case {
    const char* name;
    const ServiceDef* service;
    uint16_t method_id;
    std::vector<uint8_t> args;
    RpcStatus status;
    std::vector<uint8_t> payload;
    Duration service_time;
  };
  const Case cases[] = {
      {"no service", nullptr, 1, good_args, RpcStatus::kNoSuchService, {}, 0},
      {"unknown method", &service, 9, good_args, RpcStatus::kNoSuchMethod, {}, 0},
      {"bad arguments", &service, 1, {1, 2}, RpcStatus::kBadArguments, {}, 0},
      {"good call", &service, 1, good_args, RpcStatus::kOk, answer, Microseconds(3)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Invocation result = InvokeMethod(c.service, c.method_id, c.args);
    EXPECT_EQ(result.status, c.status);
    EXPECT_EQ(result.payload, c.payload);
    EXPECT_EQ(result.service_time, c.service_time);
  }
}

// ServeRequest, the Linux and bypass stacks' request→reply step: one row per
// verdict, each with the exact user-cost terms it must charge and the dedup
// entry it must leave behind.
TEST(ServerStepTest, ServeRequestVerdictsChargeTheirExactUserCost) {
  ServiceDef service;
  service.service_id = 3;
  MethodDef& add_one = service.methods[1];
  add_one.method_id = 1;
  add_one.request_sig = MethodSignature{{WireType::kU64}};
  add_one.response_sig = MethodSignature{{WireType::kU64}};
  add_one.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1)};
  };
  add_one.SetFixedServiceTime(Microseconds(3));

  constexpr uint64_t kRoot = 0x1234;
  constexpr uint64_t kId = 77;
  constexpr uint64_t kFlow = DedupFlowKey(MakeIpv4(10, 0, 0, 1), 40001);
  const uint64_t key = DeriveKey(kRoot, service.service_id);
  std::vector<uint8_t> args;
  ASSERT_TRUE(MarshalArgs(add_one.request_sig, std::vector<WireValue>{WireValue::U64(41)}, args));
  std::vector<uint8_t> answer;
  ASSERT_TRUE(
      MarshalArgs(add_one.response_sig, std::vector<WireValue>{WireValue::U64(42)}, answer));
  const std::vector<uint8_t> sealed_args = SealPayload(key, 1, args);
  const std::vector<uint8_t> wrong_key_args = SealPayload(DeriveKey(0xbad, 3), 1, args);
  const std::vector<uint8_t> sealed_answer = SealPayload(key, kId ^ 0x5a5a, answer);
  const std::vector<uint8_t> cached_payload = {9, 9};

  const OsCostModel costs;
  const Duration open = costs.SwCryptoCost(sealed_args.size());
  const Duration unmarshal = costs.SwMarshalCost(args.size());
  const Duration marshal = costs.SwMarshalCost(answer.size());
  const Duration seal = costs.SwCryptoCost(answer.size());
  const Duration handler = Microseconds(3);

  // What the dedup table holds for (kFlow, kId) before the step runs.
  enum class Prior { kNone, kInFlight, kCompleted };
  struct Row {
    const char* name;
    const ServiceDef* service;
    std::optional<uint64_t> root_key;
    std::vector<uint8_t> payload;
    Prior prior;
    ServeVerdict verdict;
    RpcStatus status;
    std::vector<uint8_t> response_payload;
    Duration user_cost;
    // Screening the same id again afterwards.
    RpcDedupCache::Verdict after;
  };
  const Row rows[] = {
      {"executed, sealed", &service, kRoot, sealed_args, Prior::kNone,
       ServeVerdict::kExecuted, RpcStatus::kOk, sealed_answer,
       open + unmarshal + handler + marshal + seal, RpcDedupCache::Verdict::kCompleted},
      {"executed, clear", &service, std::nullopt, args, Prior::kNone,
       ServeVerdict::kExecuted, RpcStatus::kOk, answer, unmarshal + handler + marshal,
       RpcDedupCache::Verdict::kCompleted},
      {"in-flight drop", &service, kRoot, sealed_args, Prior::kInFlight,
       ServeVerdict::kInFlight, RpcStatus::kOk, {}, open,
       RpcDedupCache::Verdict::kInFlight},
      {"replay", &service, kRoot, sealed_args, Prior::kCompleted, ServeVerdict::kReplay,
       RpcStatus::kOk, cached_payload, open, RpcDedupCache::Verdict::kCompleted},
      {"wrong key", &service, kRoot, wrong_key_args, Prior::kNone,
       ServeVerdict::kBadRequest, RpcStatus::kOk, {}, open, RpcDedupCache::Verdict::kNew},
      {"null service", nullptr, kRoot, args, Prior::kNone, ServeVerdict::kExecuted,
       RpcStatus::kNoSuchService, {}, 0, RpcDedupCache::Verdict::kCompleted},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    RpcDedupCache dedup;
    if (row.prior != Prior::kNone) {
      dedup.Screen(kFlow, kId);
    }
    if (row.prior == Prior::kCompleted) {
      RpcMessage cached = ReplyTo(3, 1, kId);
      cached.payload = cached_payload;
      dedup.Complete(kFlow, kId, cached);
    }
    RpcMessage request;
    request.service_id = 3;
    request.method_id = 1;
    request.request_id = kId;
    request.payload = row.payload;

    const Served served =
        ServeRequest(request, row.service, kFlow, &dedup, row.root_key, costs);
    EXPECT_EQ(served.verdict, row.verdict);
    EXPECT_EQ(served.user_cost, row.user_cost);
    EXPECT_EQ(served.response.payload, row.response_payload);
    if (row.verdict == ServeVerdict::kExecuted || row.verdict == ServeVerdict::kReplay) {
      EXPECT_EQ(served.response.kind, MessageKind::kResponse);
      EXPECT_EQ(served.response.status, row.status);
      EXPECT_EQ(served.response.request_id, kId);
    }
    // An executed request leaves its sealed response for replay; a bad one
    // leaves no entry at all.
    const RpcDedupCache::Screened again = dedup.Screen(kFlow, kId);
    EXPECT_EQ(again.verdict, row.after);
    if (again.verdict == RpcDedupCache::Verdict::kCompleted) {
      EXPECT_EQ(again.cached->payload, row.response_payload);
    }
  }
}

}  // namespace
}  // namespace lauberhorn
