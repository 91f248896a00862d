#include "workload/fio.hpp"

#include <array>

#include "guest/kernel.hpp"
#include "sim/check.hpp"

namespace paratick::workload {

namespace {
constexpr std::array<FioCategory, 4> kCategories{{
    {"seqr", hw::IoDir::kRead, hw::IoPattern::kSequential},
    {"seqwr", hw::IoDir::kWrite, hw::IoPattern::kSequential},
    {"rndr", hw::IoDir::kRead, hw::IoPattern::kRandom},
    {"rndwr", hw::IoDir::kWrite, hw::IoPattern::kRandom},
}};

constexpr std::array<std::uint32_t, 7> kBlockSizes{
    4096, 8192, 16384, 32768, 65536, 131072, 262144};
}  // namespace

std::span<const FioCategory> fio_categories() { return kCategories; }

std::span<const std::uint32_t> fio_block_sizes() { return kBlockSizes; }

Program make_fio_program(const FioSpec& spec) {
  PARATICK_CHECK(spec.ops > 0 && spec.block_bytes > 0);
  hw::IoRequest req;
  req.dir = spec.dir;
  req.pattern = spec.pattern;
  req.bytes = spec.block_bytes;

  Program prog;
  prog.reserve(2);
  prog.io(req);
  // Per-op CPU: buffer copy + checksum, scaling mildly with block size.
  prog.compute(spec.think_cycles +
               static_cast<std::int64_t>(spec.block_bytes) / 16);
  prog.repeat(spec.ops);
  return prog;
}

void install_fio(guest::GuestKernel& kernel, const FioSpec& spec) {
  kernel.add_task(make_task_body(make_fio_program(spec)), 0);
}

}  // namespace paratick::workload
