#include "core/dispatch/protocol.hpp"

#include "core/cli_parse.hpp"
#include "sim/check.hpp"

namespace paratick::core::dispatch {

std::string assignment_line(std::size_t idx) {
  return "#run " + std::to_string(idx);
}

std::size_t parse_assignment(const std::string& line, std::size_t run_count) {
  if (line.rfind("#run ", 0) != 0) {
    const std::string msg = "#run: expected an assignment \"#run N\", got \"" +
                            line.substr(0, 40) + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  const std::uint64_t idx = parse_u64_flag("#run", line.substr(5));
  if (idx >= run_count) {
    const std::string msg = "#run: run index " + std::to_string(idx) +
                            " is outside the plan (" +
                            std::to_string(run_count) + " runs)";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return static_cast<std::size_t>(idx);
}

}  // namespace paratick::core::dispatch
