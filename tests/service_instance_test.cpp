// Tests for the DPI service instance: packet processing, the three result-
// passing behaviours of §4.2/§6.1, telemetry, and flow migration.
#include <gtest/gtest.h>

#include "netsim/host.hpp"
#include "service/instance.hpp"
#include "service/instance_node.hpp"

namespace dpisvc::service {
namespace {

std::shared_ptr<const dpi::Engine> test_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  ids.read_only = true;
  dpi::MiddleboxProfile av;
  av.id = 2;
  av.name = "av";
  spec.middleboxes = {ids, av};
  spec.exact_patterns = {
      dpi::ExactPatternSpec{"attack", 1, 100},
      dpi::ExactPatternSpec{"virus!", 2, 200},
  };
  spec.chains[5] = {1, 2};
  return dpi::Engine::compile(spec);
}

std::shared_ptr<const dpi::Engine> stateful_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  ids.stateful = true;
  spec.middleboxes = {ids};
  spec.exact_patterns = {dpi::ExactPatternSpec{"splitpattern", 1, 7}};
  spec.chains[5] = {1};
  return dpi::Engine::compile(spec);
}

net::Packet tagged_packet(std::string_view payload, std::uint32_t chain = 5,
                          std::uint16_t ip_id = 1) {
  net::Packet p;
  p.tuple.src_ip = net::Ipv4Addr(10, 0, 0, 1);
  p.tuple.dst_ip = net::Ipv4Addr(10, 0, 0, 2);
  p.tuple.src_port = 1000;
  p.tuple.dst_port = 80;
  p.ip_id = ip_id;
  p.payload = to_bytes(payload);
  p.push_tag(net::TagKind::kPolicyChain, chain);
  return p;
}

TEST(Instance, ScanRequiresEngine) {
  DpiInstance inst("i1");
  EXPECT_THROW(inst.scan(5, net::FiveTuple{}, {}), std::logic_error);
  EXPECT_FALSE(inst.has_engine());
}

TEST(Instance, CleanPacketForwardedUnmodified) {
  DpiInstance inst("i1");
  inst.load_engine(test_engine(), 1);
  net::Packet original = tagged_packet("nothing interesting here");
  const Bytes wire_before = original.to_wire();
  ProcessOutput out = inst.process(std::move(original));
  // §4.2: "a packet with no matches is always forwarded as is".
  EXPECT_FALSE(out.had_matches);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_FALSE(out.data.has_match_mark());
  EXPECT_EQ(out.data.to_wire(), wire_before);
}

TEST(Instance, UntaggedPacketPassesThrough) {
  DpiInstance inst("i1");
  inst.load_engine(test_engine(), 1);
  net::Packet p;
  p.payload = to_bytes("attack");  // would match, but no chain tag
  ProcessOutput out = inst.process(std::move(p));
  EXPECT_FALSE(out.had_matches);
  EXPECT_EQ(inst.telemetry().pass_through, 1u);
  EXPECT_EQ(inst.telemetry().packets, 0u);
}

TEST(Instance, UnknownChainTagPassesThrough) {
  DpiInstance inst("i1");
  inst.load_engine(test_engine(), 1);
  ProcessOutput out = inst.process(tagged_packet("attack", /*chain=*/99));
  EXPECT_FALSE(out.had_matches);
  EXPECT_EQ(inst.telemetry().pass_through, 1u);
}

TEST(Instance, DedicatedResultPacketMode) {
  DpiInstance inst("i1");  // default mode: dedicated result packet
  inst.load_engine(test_engine(), 1);
  ProcessOutput out = inst.process(tagged_packet("an attack and a virus!"));
  EXPECT_TRUE(out.had_matches);
  EXPECT_TRUE(out.data.has_match_mark());
  EXPECT_FALSE(out.data.service_header.has_value());  // data stays clean
  ASSERT_TRUE(out.result.has_value());
  const net::Packet& result = *out.result;
  EXPECT_EQ(result.service_header->service_path_id, kResultServicePathId);
  // Result packet follows the same steering path: same chain tag and flow.
  EXPECT_EQ(result.find_tag(net::TagKind::kPolicyChain), 5u);
  EXPECT_EQ(result.tuple, out.data.tuple);
  EXPECT_EQ(packet_ref_of(result), packet_ref_of(out.data));

  const net::MatchReport report =
      net::decode_report(result.service_header->metadata);
  EXPECT_EQ(report.policy_chain_id, 5);
  ASSERT_EQ(report.sections.size(), 2u);
  EXPECT_EQ(report.sections[0].middlebox_id, 1);
  EXPECT_EQ(report.sections[0].entries[0].pattern_id, 100);
  EXPECT_EQ(report.sections[1].middlebox_id, 2);
  EXPECT_EQ(report.sections[1].entries[0].pattern_id, 200);
}

TEST(Instance, ServiceHeaderMode) {
  InstanceConfig config;
  config.result_mode = ResultMode::kServiceHeader;
  DpiInstance inst("i1", config);
  inst.load_engine(test_engine(), 1);
  ProcessOutput out = inst.process(tagged_packet("attack"));
  EXPECT_TRUE(out.had_matches);
  EXPECT_FALSE(out.result.has_value());
  ASSERT_TRUE(out.data.service_header.has_value());
  EXPECT_TRUE(out.data.has_match_mark());
  const net::MatchReport report =
      net::decode_report(out.data.service_header->metadata);
  EXPECT_EQ(report.sections.size(), 1u);
  // The annotated packet still survives the wire.
  const net::Packet rewired = net::Packet::from_wire(out.data.to_wire());
  EXPECT_EQ(rewired.service_header, out.data.service_header);
}

TEST(Instance, TelemetryAccumulates) {
  DpiInstance inst("i1");
  inst.load_engine(test_engine(), 1);
  inst.process(tagged_packet("clean payload here"));
  inst.process(tagged_packet("attack attack attack"));
  const InstanceTelemetry& t = inst.telemetry();
  EXPECT_EQ(t.packets, 2u);
  EXPECT_EQ(t.match_packets, 1u);
  EXPECT_GT(t.bytes, 30u);
  EXPECT_GE(t.raw_hits, 3u);
  EXPECT_GT(t.result_bytes, 0u);
  EXPECT_GT(t.hits_per_byte(), 0.0);
  ASSERT_EQ(inst.chain_telemetry().count(5), 1u);
  EXPECT_EQ(inst.chain_telemetry().at(5).packets, 2u);
}

TEST(Instance, StatefulFlowsTrackedAndMatchAcrossPackets) {
  DpiInstance inst("i1");
  inst.load_engine(stateful_engine(), 1);
  const net::Packet first = tagged_packet("xxsplitpa", 5, 1);
  inst.process(net::Packet(first));
  EXPECT_EQ(inst.active_flows(), 1u);
  ProcessOutput out = inst.process(tagged_packet("tternzz", 5, 2));
  EXPECT_TRUE(out.had_matches);
  const net::MatchReport report =
      net::decode_report(out.result->service_header->metadata);
  EXPECT_EQ(report.sections[0].entries[0].position, 14u);  // flow offset
}

TEST(Instance, FlowMigrationPreservesScanState) {
  DpiInstance source("src");
  DpiInstance target("dst");
  source.load_engine(stateful_engine(), 1);
  target.load_engine(stateful_engine(), 1);

  const net::Packet first = tagged_packet("xxsplitpa", 5, 1);
  source.process(net::Packet(first));
  // Migrate the flow mid-pattern (§4.3).
  const dpi::FlowCursor cursor = source.export_flow(first.tuple);
  ASSERT_TRUE(cursor.valid);
  EXPECT_EQ(source.active_flows(), 0u);
  target.import_flow(first.tuple, cursor);

  ProcessOutput out = target.process(tagged_packet("tternzz", 5, 2));
  EXPECT_TRUE(out.had_matches);  // the straddling match still fires
}

TEST(Instance, LruEvictionOfLiveCursorIsObservable) {
  // A flow-creation flood on an undersized table silently resets stateful
  // cursors: the straddling match below is *missed*, and the only trace is
  // the flow_evictions telemetry counter this test pins down.
  InstanceConfig config;
  config.max_flows = 1;
  DpiInstance inst("i1", config);
  inst.load_engine(stateful_engine(), 1);

  net::FiveTuple flow_a{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        1000, 80, net::IpProto::kTcp};
  net::FiveTuple flow_b{net::Ipv4Addr(10, 0, 0, 3), net::Ipv4Addr(10, 0, 0, 4),
                        2000, 80, net::IpProto::kTcp};

  // Flow A scans the first half of "splitpattern"...
  const auto r1 = inst.scan(5, flow_a, to_bytes("xxsplitpa"));
  EXPECT_FALSE(r1.has_matches());
  // ...then flow B's insert evicts A's live cursor (capacity 1).
  (void)inst.scan(5, flow_b, to_bytes("yy"));
  EXPECT_EQ(inst.telemetry().flow_evictions, 1u);
  // Flow A's second half resumes from the DFA root: the straddling match
  // is lost. (With enough capacity it fires — see
  // StatefulFlowsTrackedAndMatchAcrossPackets.)
  const auto r2 = inst.scan(5, flow_a, to_bytes("tternzz"));
  EXPECT_FALSE(r2.has_matches());
  EXPECT_GE(inst.telemetry().flow_evictions, 1u);
}

TEST(Instance, BulkFlowExportImportMigratesAllState) {
  DpiInstance source("src");
  DpiInstance target("dst");
  source.load_engine(stateful_engine(), 1);
  target.load_engine(stateful_engine(), 1);

  const net::Packet first = tagged_packet("xxsplitpa", 5, 1);
  source.process(net::Packet(first));
  auto exported = source.export_all_flows();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(source.active_flows(), 0u);
  target.import_flows(exported);
  EXPECT_EQ(target.active_flows(), 1u);

  ProcessOutput out = target.process(tagged_packet("tternzz", 5, 2));
  EXPECT_TRUE(out.had_matches);  // the straddling match still fires
}

TEST(Instance, LoadEngineClearsFlows) {
  DpiInstance inst("i1");
  inst.load_engine(stateful_engine(), 1);
  inst.process(tagged_packet("xxsplitpa"));
  EXPECT_EQ(inst.active_flows(), 1u);
  inst.load_engine(stateful_engine(), 2);
  EXPECT_EQ(inst.active_flows(), 0u);
  EXPECT_EQ(inst.engine_version(), 2u);
}

TEST(InstanceNode, EmitsDataThenResultTowardSwitch) {
  netsim::Fabric fabric;
  auto inst = std::make_shared<DpiInstance>("dpi1");
  inst->load_engine(test_engine(), 1);
  fabric.add_node<InstanceNode>("dpi1", inst);
  netsim::Host& sink = fabric.add_node<netsim::Host>("sw");  // stands for the switch
  fabric.connect("dpi1", "sw");

  fabric.send("sw", "dpi1", tagged_packet("attack here"));
  fabric.run();
  ASSERT_EQ(sink.received().size(), 2u);
  EXPECT_TRUE(sink.received()[0].has_match_mark());
  EXPECT_FALSE(sink.received()[0].service_header.has_value());
  ASSERT_TRUE(sink.received()[1].service_header.has_value());
  EXPECT_EQ(sink.received()[1].service_header->service_path_id,
            kResultServicePathId);
}

}  // namespace
}  // namespace dpisvc::service
