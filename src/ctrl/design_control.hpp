// Design-level control generation (paper §VI): one control unit per
// sequencing graph, interconnected hierarchically with handshake
// signals -- the "modular interconnection of FSMs" of the adaptive
// control scheme the paper builds on.
//
// Wiring model:
//   - a graph's controller is activated by its parent: the parent's
//     enable for the hierarchical op (loop/cond/call) starts the child,
//     which is the child's done_source;
//   - unbounded anchors inside a graph (waits, loops) complete on
//     status signals from the datapath/environment (done_<op> inputs);
//   - a child's completion (its sink enable) reports back as the
//     parent's done_<op> for bounded calls, or feeds the loop
//     controller for data-dependent iterations.
#pragma once

#include <string>
#include <vector>

#include "ctrl/control.hpp"
#include "driver/synthesis.hpp"
#include "seq/design.hpp"

namespace relsched::ctrl {

struct GraphControl {
  SeqGraphId graph;
  ControlUnit unit;
};

struct DesignControl {
  ControlStyle style = ControlStyle::kShiftRegister;
  std::vector<GraphControl> graphs;  // postorder, like synthesis results
  ControlCost total_cost;

  /// Full structural Verilog: one module per graph controller plus a
  /// top module instantiating them and wiring activation / done
  /// handshakes. External status signals (loop terminations, waits)
  /// surface as top-level inputs.
  [[nodiscard]] std::string to_verilog(
      const seq::Design& design, const driver::SynthesisResult& synthesis,
      const std::string& top_name) const;
};

/// Generates control for every graph of a synthesized design.
DesignControl generate_design_control(const driver::SynthesisResult& synthesis,
                                      const ControlOptions& options = {});

}  // namespace relsched::ctrl
