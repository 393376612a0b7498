// Round-trip validation of the Verilog exporter: parse the emitted
// structural Verilog back into a Netlist (the exporter's output is a
// deterministic one-assign-per-line subset) and prove the rebuilt
// circuit simulation-equivalent to the original on random vectors.
// This tests the exporter's *semantics*, not just its text.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "hw/hw_design.hpp"
#include "netlist/export.hpp"
#include "netlist/sim.hpp"
#include "util/rng.hpp"

namespace dbi::netlist {
namespace {

// Minimal parser for the exporter's combinational subset.
class VerilogReader {
 public:
  explicit VerilogReader(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) parse_line(strip(line));
  }

  Netlist& netlist() { return nl_; }
  [[nodiscard]] NetId input(const std::string& name) const {
    return nets_.at(name);
  }
  [[nodiscard]] NetId output(const std::string& name) const {
    return nets_.at("assigned:" + name);
  }

 private:
  static std::string strip(std::string s) {
    const auto a = s.find_first_not_of(" \t");
    if (a == std::string::npos) return "";
    const auto b = s.find_last_not_of(" \t");
    return s.substr(a, b - a + 1);
  }

  void parse_line(const std::string& line) {
    if (line.rfind("input  wire ", 0) == 0) {
      std::string name = line.substr(12);
      if (!name.empty() && name.back() == ',') name.pop_back();
      nets_[name] = nl_.add_input(name);
      return;
    }
    if (line.rfind("assign ", 0) == 0) {
      const auto eq = line.find(" = ");
      ASSERT_NE(eq, std::string::npos) << line;
      const std::string lhs = line.substr(7, eq - 7);
      std::string rhs = line.substr(eq + 3);
      ASSERT_FALSE(rhs.empty());
      ASSERT_EQ(rhs.back(), ';') << line;
      rhs.pop_back();
      const NetId net = parse_expr(rhs);
      // Output-port assigns alias an existing net; internal wires
      // define a new name.
      if (lhs.rfind('n', 0) == 0 &&
          lhs.find_first_not_of("0123456789", 1) == std::string::npos)
        nets_[lhs] = net;
      else
        nets_["assigned:" + lhs] = net;
      return;
    }
    // module/ports/wire declarations/endmodule: structural noise.
  }

  NetId parse_expr(const std::string& expr) {
    if (expr == "1'b0") return nl_.add_const(false);
    if (expr == "1'b1") return nl_.add_const(true);
    if (expr.rfind("~(", 0) == 0)
      return invert_of(parse_binary(expr.substr(1)));
    if (expr.front() == '(') return parse_binary(expr);
    if (expr.front() == '~') return invert_of(ref(expr.substr(1)));
    const auto q = expr.find(" ? ");
    if (q != std::string::npos) {
      const auto c = expr.find(" : ", q);
      const NetId sel = ref(expr.substr(0, q));
      const NetId b = ref(expr.substr(q + 3, c - q - 3));
      const NetId a = ref(expr.substr(c + 3));
      return nl_.mux2(a, b, sel);
    }
    return ref(expr);  // plain alias (BUF collapsed by the reader)
  }

  NetId parse_binary(const std::string& expr) {
    // "(A op B)" with op in & | ^.
    EXPECT_EQ(expr.front(), '(');
    EXPECT_EQ(expr.back(), ')');
    const std::string inner = expr.substr(1, expr.size() - 2);
    const auto sp = inner.find(' ');
    const char op = inner[sp + 1];
    const NetId a = ref(inner.substr(0, sp));
    const NetId b = ref(inner.substr(sp + 3));
    switch (op) {
      case '&':
        return nl_.and2(a, b);
      case '|':
        return nl_.or2(a, b);
      case '^':
        return nl_.xor2(a, b);
      default:
        ADD_FAILURE() << "bad operator in: " << expr;
        return nl_.add_const(false);
    }
  }

  NetId invert_of(NetId a) { return nl_.inv(a); }
  NetId ref(const std::string& name) { return nets_.at(name); }

  Netlist nl_;
  std::map<std::string, NetId> nets_;
};

class VerilogRoundTrip
    : public ::testing::TestWithParam<hw::HwDesign (*)(int)> {};

TEST_P(VerilogRoundTrip, ReimportedNetlistIsEquivalent) {
  const hw::HwDesign design = GetParam()(8);
  std::ostringstream os;
  write_verilog(os, design.net, design.name);
  VerilogReader reader(os.str());

  Simulator original(design.net);
  Simulator rebuilt(reader.netlist());

  util::Xoshiro256 rng(20180319);
  for (int round = 0; round < 150; ++round) {
    // Drive identical random values into both circuits by port name.
    for (const Port& in : design.net.inputs()) {
      const bool v = (rng.next() & 1) != 0;
      original.set_input(in.net, v);
      rebuilt.set_input(reader.input(sanitize_identifier(in.name)), v);
    }
    original.eval();
    rebuilt.eval();
    for (const Port& out : design.net.outputs())
      ASSERT_EQ(original.value(out.net),
                rebuilt.value(reader.output(sanitize_identifier(out.name))))
          << design.name << " output " << out.name << " round " << round;
  }
}

std::string roundtrip_name(
    const ::testing::TestParamInfo<hw::HwDesign (*)(int)>& info) {
  switch (info.index) {
    case 0:
      return "dc";
    case 1:
      return "ac";
    case 2:
      return "opt_fixed";
    default:
      return "decoder";
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, VerilogRoundTrip,
                         ::testing::Values(&hw::build_dbi_dc,
                                           &hw::build_dbi_ac,
                                           &hw::build_dbi_opt_fixed,
                                           &hw::build_dbi_decoder),
                         roundtrip_name);

}  // namespace
}  // namespace dbi::netlist
