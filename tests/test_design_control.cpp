#include "ctrl/design_control.hpp"

#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "driver/synthesis.hpp"

namespace relsched::ctrl {
namespace {

struct Synthesized {
  seq::Design design;
  driver::SynthesisResult result;

  explicit Synthesized(const char* name) : design(designs::build(name)) {
    result = driver::synthesize(design);
    EXPECT_TRUE(result.ok()) << result.message;
  }
};

TEST(DesignControl, CostIsSumOfGraphCosts) {
  Synthesized s("gcd");
  const auto control = generate_design_control(s.result);
  ASSERT_EQ(control.graphs.size(), s.result.graphs.size());
  ControlCost sum;
  for (const GraphControl& gc : control.graphs) {
    sum = sum + gc.unit.cost;
  }
  EXPECT_EQ(control.total_cost.flipflops, sum.flipflops);
  EXPECT_EQ(control.total_cost.gates, sum.gates);
}

TEST(DesignControl, VerilogHasOneModulePerGraphPlusTop) {
  Synthesized s("gcd");
  const auto control = generate_design_control(s.result);
  const std::string v = control.to_verilog(s.design, s.result, "gcd");
  std::size_t modules = 0, pos = 0;
  while ((pos = v.find("\nmodule ", pos)) != std::string::npos) {
    ++modules;
    ++pos;
  }
  if (v.rfind("module ", 0) == 0) ++modules;  // module at offset 0
  EXPECT_EQ(modules, control.graphs.size() + 1);
  EXPECT_NE(v.find("module gcd ("), std::string::npos);
  EXPECT_NE(v.find("input wire start"), std::string::npos);
}

TEST(DesignControl, RootActivatesOnStartChildrenOnParentEnables) {
  Synthesized s("gcd");
  const auto control = generate_design_control(s.result);
  const std::string v = control.to_verilog(s.design, s.result, "gcd");
  EXPECT_NE(v.find("assign act_root = start;"), std::string::npos);
  // Every non-root graph gets an activation assignment from an enable.
  for (const GraphControl& gc : control.graphs) {
    if (gc.graph == s.design.root()) continue;
    const std::string needle =
        "assign act_" + s.design.graph(gc.graph).name() + " = en_";
    EXPECT_NE(v.find(needle), std::string::npos) << needle;
  }
}

TEST(DesignControl, UnboundedAnchorsBecomeStatusInputs) {
  Synthesized s("gcd");
  const auto control = generate_design_control(s.result);
  const std::string v = control.to_verilog(s.design, s.result, "gcd");
  // The restart polling loop is an unbounded anchor in the root graph.
  EXPECT_NE(v.find("input wire status_root_while0"), std::string::npos);
  // And it is wired into the root controller's done input.
  EXPECT_NE(v.find(".done_while0(status_root_while0)"), std::string::npos);
}

TEST(DesignControl, EveryControllerInstantiatedExactlyOnce) {
  for (const char* name : {"traffic", "daio_rx", "frisc"}) {
    Synthesized s(name);
    const auto control = generate_design_control(s.result);
    const std::string v = control.to_verilog(s.design, s.result, name);
    for (const GraphControl& gc : control.graphs) {
      const std::string instance =
          " u_" + s.design.graph(gc.graph).name() + " (";
      std::size_t count = 0, pos = 0;
      while ((pos = v.find(instance, pos)) != std::string::npos) {
        ++count;
        ++pos;
      }
      EXPECT_EQ(count, 1u) << name << " " << instance;
    }
  }
}

TEST(DesignControl, CounterStylePropagates) {
  Synthesized s("length");
  ControlOptions opts;
  opts.style = ControlStyle::kCounter;
  const auto control = generate_design_control(s.result, opts);
  EXPECT_EQ(control.style, ControlStyle::kCounter);
  const std::string v = control.to_verilog(s.design, s.result, "length");
  EXPECT_NE(v.find("cnt_"), std::string::npos);
  EXPECT_EQ(v.find("sr_"), std::string::npos);
}

}  // namespace
}  // namespace relsched::ctrl
