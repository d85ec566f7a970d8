// Circuit-level unit tests of the write-back module (Section 4.3):
// round-robin draining, destination addressing, back-pressure accounting,
// and PAD overflow detection.
#include <gtest/gtest.h>

#include <vector>

#include "datagen/partitioned_output.h"
#include "fpga/write_back.h"
#include "qpi/qpi_link.h"

namespace fpart {
namespace {

CombinedLine<Tuple8> MakeLine(uint32_t partition, uint32_t tag) {
  CombinedLine<Tuple8> line;
  line.partition = partition;
  line.valid_count = 8;
  for (int b = 0; b < 8; ++b) {
    line.tuples[b] = Tuple8{tag, static_cast<uint32_t>(b)};
  }
  return line;
}

struct Rig {
  PartitionedOutputBuilder<Tuple8> out;
  std::vector<Fifo<CombinedLine<Tuple8>>> fifos;
  QpiLink link = QpiLink::Fixed(200e6, 12.8);  // 1 line/cycle
  CycleStats stats;

  explicit Rig(std::vector<uint32_t> caps, int num_fifos = 2)
      : fifos(num_fifos, Fifo<CombinedLine<Tuple8>>(8)) {
    auto o = PartitionedOutputBuilder<Tuple8>::Allocate(caps);
    EXPECT_TRUE(o.ok());
    out = std::move(*o);
  }

  std::vector<Fifo<CombinedLine<Tuple8>>*> inputs() {
    std::vector<Fifo<CombinedLine<Tuple8>>*> v;
    for (auto& f : fifos) v.push_back(&f);
    return v;
  }
};

TEST(WriteBackTest, WritesLineToPartitionBase) {
  Rig rig({4, 4});
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  rig.fifos[0].Push(MakeLine(1, 99));
  for (int i = 0; i < 4; ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  EXPECT_TRUE(wb.idle());
  EXPECT_EQ(rig.out.part(1).written_cls, 1u);
  EXPECT_EQ(rig.out.part(1).num_tuples, 8u);
  EXPECT_EQ(rig.out.partition_data(1)[0].key, 99u);
  EXPECT_EQ(rig.out.part(0).written_cls, 0u);
  EXPECT_EQ(rig.stats.output_lines, 1u);
}

TEST(WriteBackTest, RoundRobinAlternatesBetweenCombiners) {
  Rig rig({16});
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  for (int i = 0; i < 3; ++i) {
    rig.fifos[0].Push(MakeLine(0, 100 + i));
    rig.fifos[1].Push(MakeLine(0, 200 + i));
  }
  for (int i = 0; i < 16; ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  ASSERT_EQ(rig.out.part(0).written_cls, 6u);
  // Alternating sources: 100, 200, 101, 201, ...
  const Tuple8* data = rig.out.partition_data(0);
  EXPECT_EQ(data[0].key, 100u);
  EXPECT_EQ(data[8].key, 200u);
  EXPECT_EQ(data[16].key, 101u);
  EXPECT_EQ(data[24].key, 201u);
}

TEST(WriteBackTest, CountsValidTuplesNotSlots) {
  Rig rig({4});
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  CombinedLine<Tuple8> partial = MakeLine(0, 7);
  partial.valid_count = 3;
  for (int b = 3; b < 8; ++b) partial.tuples[b] = MakeDummyTuple<Tuple8>();
  rig.fifos[0].Push(partial);
  for (int i = 0; i < 4; ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  EXPECT_EQ(rig.out.part(0).num_tuples, 3u);
  EXPECT_EQ(rig.stats.dummy_tuples, 5u);
}

TEST(WriteBackTest, BackpressureWhenLinkIsSlow) {
  Rig rig({16});
  rig.link = QpiLink::Fixed(200e6, 1.28);  // 0.1 lines/cycle
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  for (int i = 0; i < 4; ++i) rig.fifos[0].Push(MakeLine(0, i));
  for (int i = 0; i < 100; ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  EXPECT_EQ(rig.out.part(0).written_cls, 4u);
  EXPECT_GT(rig.stats.backpressure_cycles, 20u);
}

TEST(WriteBackTest, DetectsPartitionOverflow) {
  Rig rig({1, 8});
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  rig.fifos[0].Push(MakeLine(0, 1));
  rig.fifos[0].Push(MakeLine(0, 2));  // second line cannot fit
  for (int i = 0; i < 8 && !wb.overflowed(); ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  EXPECT_TRUE(wb.overflowed());
  EXPECT_EQ(wb.overflow_partition(), 0u);
  // The first line landed; the second was rejected.
  EXPECT_EQ(rig.out.part(0).written_cls, 1u);
}

TEST(WriteBackTest, IdleWithEmptyInputs) {
  Rig rig({4});
  WriteBackModule<Tuple8> wb(&rig.out, rig.inputs());
  for (int i = 0; i < 10; ++i) {
    rig.link.Tick();
    wb.Tick(&rig.link, &rig.stats);
  }
  EXPECT_TRUE(wb.idle());
  EXPECT_EQ(rig.stats.output_lines, 0u);
  EXPECT_EQ(rig.stats.backpressure_cycles, 0u);
}

}  // namespace
}  // namespace fpart
