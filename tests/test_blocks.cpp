#include "netlist/blocks.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "netlist/sim.hpp"
#include "util/rng.hpp"

namespace dbi::netlist {
namespace {

TEST(Blocks, ConstBusHoldsValue) {
  Netlist nl;
  const Bus b = make_const_bus(nl, 0b1011, 4);
  Simulator sim(nl);
  sim.eval();
  EXPECT_EQ(sim.bus(b), 0b1011u);
}

TEST(Blocks, FoldedGatesEmitNoCells) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId zero = nl.add_const(false);
  const NetId one = nl.add_const(true);
  EXPECT_EQ(xor_fold(nl, a, zero), a);       // identity, no gate
  EXPECT_EQ(and_fold(nl, a, one), a);
  EXPECT_EQ(or_fold(nl, a, zero), a);
  EXPECT_EQ(mux_fold(nl, a, a, one), a);
  EXPECT_EQ(nl.physical_gates(), 0u);
  // XOR with constant one must degrade to a single inverter.
  (void)xor_fold(nl, a, one);
  EXPECT_EQ(nl.physical_gates(), 1u);
  EXPECT_EQ(nl.kind_histogram()[static_cast<std::size_t>(GateKind::kInv)],
            1u);
}

TEST(Blocks, RippleAddExhaustive4Bit) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 4);
  const Bus b = make_input_bus(nl, "b", 4);
  const Bus sum = ripple_add(nl, a, b);
  ASSERT_EQ(sum.size(), 5u);
  Simulator sim(nl);
  for (std::uint64_t va = 0; va < 16; ++va)
    for (std::uint64_t vb = 0; vb < 16; ++vb) {
      sim.set_input_bus(a, va);
      sim.set_input_bus(b, vb);
      sim.eval();
      EXPECT_EQ(sim.bus(sum), va + vb) << va << "+" << vb;
    }
}

TEST(Blocks, RippleAddMixedWidths) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 6);
  const Bus b = make_input_bus(nl, "b", 3);
  const Bus sum = ripple_add(nl, a, b);
  Simulator sim(nl);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = rng.next_below(64), vb = rng.next_below(8);
    sim.set_input_bus(a, va);
    sim.set_input_bus(b, vb);
    sim.eval();
    EXPECT_EQ(sim.bus(sum), va + vb);
  }
}

TEST(Blocks, AddConstExhaustive) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 4);
  const Bus sum = add_const(nl, a, 9);
  Simulator sim(nl);
  for (std::uint64_t va = 0; va < 16; ++va) {
    sim.set_input_bus(a, va);
    sim.eval();
    EXPECT_EQ(sim.bus(sum), va + 9);
  }
}

TEST(Blocks, ConstMinusExhaustive) {
  // 9 - x for every popcount-style x in [0, 9].
  Netlist nl;
  const Bus x = make_input_bus(nl, "x", 4);
  const Bus diff = const_minus(nl, 9, x, 4);
  Simulator sim(nl);
  for (std::uint64_t vx = 0; vx <= 9; ++vx) {
    sim.set_input_bus(x, vx);
    sim.eval();
    EXPECT_EQ(sim.bus(diff), 9 - vx);
  }
}

TEST(Blocks, PopcountExhaustive8Bit) {
  Netlist nl;
  const Bus in = make_input_bus(nl, "in", 8);
  const Bus count = popcount(nl, in);
  ASSERT_EQ(count.size(), 4u);
  Simulator sim(nl);
  for (std::uint64_t v = 0; v < 256; ++v) {
    sim.set_input_bus(in, v);
    sim.eval();
    EXPECT_EQ(sim.bus(count), static_cast<std::uint64_t>(
                                  std::popcount(static_cast<unsigned>(v))));
  }
}

class PopcountWidths : public ::testing::TestWithParam<int> {};

TEST_P(PopcountWidths, MatchesBuiltin) {
  const int width = GetParam();
  Netlist nl;
  const Bus in = make_input_bus(nl, "in", width);
  const Bus count = popcount(nl, in);
  EXPECT_EQ(count.size(),
            static_cast<std::size_t>(std::bit_width(
                static_cast<unsigned>(width))));
  Simulator sim(nl);
  util::Xoshiro256 rng(7);
  const std::uint64_t space = std::uint64_t{1} << width;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = rng.next_below(space);
    sim.set_input_bus(in, v);
    sim.eval();
    EXPECT_EQ(sim.bus(count),
              static_cast<std::uint64_t>(std::popcount(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PopcountWidths,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9, 16));

TEST(Blocks, LessThanExhaustive4Bit) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 4);
  const Bus b = make_input_bus(nl, "b", 4);
  const NetId lt = less_than(nl, a, b);
  Simulator sim(nl);
  for (std::uint64_t va = 0; va < 16; ++va)
    for (std::uint64_t vb = 0; vb < 16; ++vb) {
      sim.set_input_bus(a, va);
      sim.set_input_bus(b, vb);
      sim.eval();
      EXPECT_EQ(sim.value(lt), va < vb) << va << "<" << vb;
    }
}

TEST(Blocks, LessThanConst) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 4);
  const NetId lt4 = less_than_const(nl, a, 4);
  const NetId lt9 = less_than_const(nl, a, 9);
  Simulator sim(nl);
  for (std::uint64_t va = 0; va < 16; ++va) {
    sim.set_input_bus(a, va);
    sim.eval();
    EXPECT_EQ(sim.value(lt4), va < 4);
    EXPECT_EQ(sim.value(lt9), va < 9);
  }
}

TEST(Blocks, MuxAndXorBuses) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 8);
  const Bus b = make_input_bus(nl, "b", 8);
  const NetId sel = nl.add_input("sel");
  const Bus m = mux_bus(nl, a, b, sel);
  const Bus x = xor_bus(nl, a, b);
  const NetId ctrl = nl.add_input("ctrl");
  const Bus xc = xor_with(nl, a, ctrl);
  Simulator sim(nl);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = rng.next_below(256), vb = rng.next_below(256);
    const bool s = (rng.next() & 1) != 0, c = (rng.next() & 1) != 0;
    sim.set_input_bus(a, va);
    sim.set_input_bus(b, vb);
    sim.set_input(sel, s);
    sim.set_input(ctrl, c);
    sim.eval();
    EXPECT_EQ(sim.bus(m), s ? vb : va);
    EXPECT_EQ(sim.bus(x), va ^ vb);
    EXPECT_EQ(sim.bus(xc), c ? (~va & 0xFF) : va);
  }
}

TEST(Blocks, MultiplyExhaustive4x3) {
  Netlist nl;
  const Bus v = make_input_bus(nl, "v", 4);
  const Bus c = make_input_bus(nl, "c", 3);
  const Bus p = multiply(nl, v, c);
  ASSERT_EQ(p.size(), 7u);
  Simulator sim(nl);
  for (std::uint64_t vv = 0; vv < 16; ++vv)
    for (std::uint64_t vc = 0; vc < 8; ++vc) {
      sim.set_input_bus(v, vv);
      sim.set_input_bus(c, vc);
      sim.eval();
      EXPECT_EQ(sim.bus(p), vv * vc) << vv << "*" << vc;
    }
}

TEST(Blocks, ZeroExtend) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 3);
  const Bus ext = zero_extend(nl, a, 6);
  ASSERT_EQ(ext.size(), 6u);
  Simulator sim(nl);
  sim.set_input_bus(a, 0b101);
  sim.eval();
  EXPECT_EQ(sim.bus(ext), 0b101u);
  EXPECT_THROW(zero_extend(nl, ext, 4), std::invalid_argument);
}

TEST(Blocks, RegisterBusLatchesOnClock) {
  Netlist nl;
  const Bus d = make_input_bus(nl, "d", 4);
  const Bus q = register_bus(nl, d);
  Simulator sim(nl);
  sim.set_input_bus(d, 0xA);
  sim.eval();
  EXPECT_EQ(sim.bus(q), 0u);  // not clocked yet
  sim.clock();
  EXPECT_EQ(sim.bus(q), 0xAu);
  sim.set_input_bus(d, 0x5);
  sim.eval();
  EXPECT_EQ(sim.bus(q), 0xAu);  // holds until the next edge
  sim.clock();
  EXPECT_EQ(sim.bus(q), 0x5u);
}

TEST(Blocks, BusValueHelper) {
  const Bus fake = {10, 20, 30};
  const std::uint64_t v =
      bus_value(fake, [](NetId id) { return id == 20; });
  EXPECT_EQ(v, 0b010u);
}

TEST(Blocks, ErrorPaths) {
  Netlist nl;
  const Bus a = make_input_bus(nl, "a", 4);
  const Bus b = make_input_bus(nl, "b", 3);
  EXPECT_THROW(mux_bus(nl, a, b, a[0]), std::invalid_argument);
  EXPECT_THROW(xor_bus(nl, a, b), std::invalid_argument);
  EXPECT_THROW((void)popcount(nl, Bus{}), std::invalid_argument);
  EXPECT_THROW((void)less_than(nl, Bus{}, a), std::invalid_argument);
  EXPECT_THROW((void)multiply(nl, Bus{}, a), std::invalid_argument);
}

}  // namespace
}  // namespace dbi::netlist
