# Command-line contract of every bench and example binary: an unknown
# --flag exits 2, a bad value or positional exits 2, --help exits 0 and
# lists the flags. Also checks that README's shared-flags table and
# `bench_table1 --help` name the same flags, so the docs cannot drift.
#
#   cmake -DBENCH_DIR=<dir> -DEXAMPLE_DIR=<dir> -DREADME=<README.md>
#         -DBASELINE=<history snapshot .json> -P cli_exit_codes.cmake
cmake_minimum_required(VERSION 3.16)

# Run `bin args...`; its exit code must be `code` and its stdout+stderr
# must match `pattern` (if not empty).
function(expect code pattern bin)
  execute_process(COMMAND ${bin} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  get_filename_component(name "${bin}" NAME)
  if(NOT rc STREQUAL "${code}")
    message(SEND_ERROR "${name} ${ARGN}: exit ${rc}, expected ${code}\n${err}")
  elseif(NOT pattern STREQUAL "" AND NOT "${out}${err}" MATCHES "${pattern}")
    message(SEND_ERROR "${name} ${ARGN}: output does not match '${pattern}'\n${out}${err}")
  endif()
endfunction()

set(benches
  bench_table1 bench_fig4_sequential bench_fig5_multithreaded bench_fig6_io
  bench_ablation_features bench_ablation_tickfreq bench_ablation_crossover
  bench_ablation_overcommit bench_ablation_costmodel bench_ablation_nohzfull
  bench_ablation_device bench_ablation_latency_tail bench_ablation_tick_jitter
  bench_microbench bench_cluster bench_diff bench_chaos bench_replay)
set(examples
  quickstart exit_breakdown io_latency consolidation tick_freq_mismatch
  trace_timeline)

set(binaries)
foreach(b IN LISTS benches)
  list(APPEND binaries "${BENCH_DIR}/${b}")
endforeach()
foreach(e IN LISTS examples)
  list(APPEND binaries "${EXAMPLE_DIR}/${e}")
endforeach()

foreach(bin IN LISTS binaries)
  expect(2 "unknown flag --no-such-flag" "${bin}" --no-such-flag)
  expect(0 "usage: .*--help +print this listing" "${bin}" --help)
endforeach()

# Sweep binaries without positionals: a bad number, a stray argument, and
# a cluster-only flag.
foreach(b bench_table1 bench_ablation_features bench_ablation_tickfreq
          bench_ablation_crossover bench_ablation_overcommit
          bench_ablation_costmodel bench_ablation_nohzfull
          bench_ablation_device bench_ablation_latency_tail
          bench_ablation_tick_jitter)
  expect(2 "--seed: not a valid integer" "${BENCH_DIR}/${b}" --seed 0xzz)
  expect(2 "unexpected argument 'stray'" "${BENCH_DIR}/${b}" stray)
endforeach()
expect(2 "unknown flag --engine-threads" "${BENCH_DIR}/bench_table1" --engine-threads 2)
expect(2 "unknown flag --dispatch" "${BENCH_DIR}/bench_table1" --dispatch -j2)
# The invariant watchdog is always on; there is no flag to ask for it.
foreach(bin "${BENCH_DIR}/bench_table1" "${BENCH_DIR}/bench_chaos"
            "${BENCH_DIR}/bench_cluster")
  expect(2 "unknown flag --watchdog" "${bin}" --watchdog)
endforeach()
# The parallel engine runs on one thread; the binaries that had the flag
# reject it like any other.
foreach(bin "${BENCH_DIR}/bench_cluster" "${EXAMPLE_DIR}/consolidation"
            "${BENCH_DIR}/bench_microbench")
  expect(2 "unknown flag --engine-threads" "${bin}" --engine-threads 2)
endforeach()
expect(2 "unknown flag --no-steal" "${BENCH_DIR}/bench_table1" --no-steal)
expect(2 "--repeat requires a value" "${BENCH_DIR}/bench_table1" --repeat)

expect(2 "unknown benchmark 'nosuchbench'" "${BENCH_DIR}/bench_fig4_sequential" nosuchbench)
expect(2 "unknown size 'nosuchsize'" "${BENCH_DIR}/bench_fig5_multithreaded" nosuchsize)
expect(2 "unexpected argument 'extra'" "${BENCH_DIR}/bench_fig5_multithreaded"
       small ferret extra)
expect(2 "unknown category 'nosuchcategory'" "${BENCH_DIR}/bench_fig6_io" nosuchcategory)
expect(2 "unknown scenario 'nosuch'" "${BENCH_DIR}/bench_chaos" nosuch)
expect(2 "missing scenario" "${BENCH_DIR}/bench_chaos")

# A run that fails never passes as a number: with a one-microsecond run
# budget every sweep bench names its degraded cells and exits 1. Only
# bench_chaos, whose failures are its data, still exits 0.
foreach(b bench_table1 bench_fig4_sequential "bench_fig5_multithreaded;small"
          bench_fig6_io bench_ablation_features bench_ablation_tickfreq
          bench_ablation_crossover bench_ablation_overcommit
          bench_ablation_costmodel bench_ablation_nohzfull
          bench_ablation_device bench_ablation_latency_tail
          bench_ablation_tick_jitter)
  list(POP_FRONT b bin)
  expect(1 "DEGRADED .*: [0-9]+ of [0-9]+ replicas failed" "${BENCH_DIR}/${bin}"
         ${b} --quiet --run-timeout 0.000001)
endforeach()
expect(0 "DEGRADED" "${BENCH_DIR}/bench_chaos" timer-storm --quiet
       --run-timeout 0.000001)

expect(2 "--repeat: not a valid integer" "${BENCH_DIR}/bench_microbench" --repeat many)
expect(2 "--seed: not a valid integer" "${BENCH_DIR}/bench_microbench" --seed 0xzz)

expect(2 "--hosts: value must be >= 1" "${BENCH_DIR}/bench_cluster" --hosts 0)
expect(2 "--vms-per-host: value must be >= 1" "${BENCH_DIR}/bench_cluster"
       --vms-per-host 0)
expect(2 "unknown flag --lookahead-mode" "${BENCH_DIR}/bench_cluster"
       --lookahead-mode sideways)
expect(2 "--migration-blackout-us: value must be >= 1" "${BENCH_DIR}/bench_cluster"
       --migration-blackout-us 0)
expect(2 "--chaos / --fault-<knob> is not supported" "${BENCH_DIR}/bench_cluster" --chaos)

expect(0 "" "${BENCH_DIR}/bench_diff" --quiet "${BASELINE}" "${BASELINE}")
expect(2 "--rel-min: value must not be negative" "${BENCH_DIR}/bench_diff"
       "${BASELINE}" "${BASELINE}" --rel-min -5)
expect(2 "--z: not a valid number" "${BENCH_DIR}/bench_diff"
       "${BASELINE}" "${BASELINE}" --z fast)
expect(2 "missing current.json" "${BENCH_DIR}/bench_diff" "${BASELINE}")

expect(2 "--fault-timer-drop: value out of range" "${BENCH_DIR}/bench_replay"
       --fault-timer-drop nan bundle.json)
expect(2 "--fault-timer-drop: value must not be negative" "${BENCH_DIR}/bench_replay"
       --fault-timer-drop -1 bundle.json)
expect(2 "missing bundle" "${BENCH_DIR}/bench_replay" --quiet)
expect(2 "unknown flag --bisect.*--help +print this listing" "${BENCH_DIR}/bench_replay"
       --bisect bundle.json)

# A bundle missing a number the replay reads is a bad bundle (exit 2,
# naming the key), not a different run that diverges (exit 1).
set(failure_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_failures")
file(REMOVE_RECURSE "${failure_dir}")
expect(0 "DEGRADED" "${BENCH_DIR}/bench_chaos" tick-loss --repeat 1 --quiet
       --failure-dir "${failure_dir}")
file(READ "${failure_dir}/bench_chaos/run0.json" bundle)
string(REPLACE "\"timer_drop_prob\": 1, " "" dropped "${bundle}")
if(dropped STREQUAL bundle)
  message(SEND_ERROR "tick-loss bundle has no \"timer_drop_prob\": 1 to drop")
endif()
file(WRITE "${failure_dir}/missing_key.json" "${dropped}")
expect(2 "missing number field \"timer_drop_prob\"" "${BENCH_DIR}/bench_replay"
       "${failure_dir}/missing_key.json" --quiet)
file(REMOVE_RECURSE "${failure_dir}")

foreach(e quickstart io_latency tick_freq_mismatch)
  expect(2 "unexpected argument 'stray'" "${EXAMPLE_DIR}/${e}" stray)
endforeach()
expect(2 "unknown benchmark 'nosuchbench'" "${EXAMPLE_DIR}/exit_breakdown" nosuchbench)
expect(2 "threads: not a valid integer" "${EXAMPLE_DIR}/exit_breakdown" fluidanimate abc)
expect(2 "threads: value must be >= 1" "${EXAMPLE_DIR}/exit_breakdown" fluidanimate 0)
expect(2 "unknown mode 'paratik'" "${EXAMPLE_DIR}/trace_timeline" paratik)
expect(2 "--hosts: value must be >= 1" "${EXAMPLE_DIR}/consolidation" --hosts 0)
expect(2 "unknown flag --lookahead-mode" "${EXAMPLE_DIR}/consolidation"
       --lookahead-mode sideways)

# README's shared-flags table (the first table after "shares one CLI:")
# against the bench_table1 --help listing. --fault-<knob> stands for the
# per-knob --fault-* flags.
file(READ "${README}" readme)
string(FIND "${readme}" "shares one CLI:" at)
if(at LESS 0)
  message(FATAL_ERROR "README.md: no \"shares one CLI:\" flag table")
endif()
string(SUBSTRING "${readme}" ${at} -1 readme)
string(FIND "${readme}" "\n|" at)
string(SUBSTRING "${readme}" ${at} -1 readme)
string(FIND "${readme}" "\n\n" at)
string(SUBSTRING "${readme}" 0 ${at} table)
string(REGEX MATCHALL "\n\\|[^|\n]*" first_cells "${table}")
set(readme_flags)
foreach(cell IN LISTS first_cells)
  string(REGEX MATCHALL "`-[^` ]+" tokens "${cell}")
  foreach(t IN LISTS tokens)
    string(SUBSTRING "${t}" 1 -1 t)
    list(APPEND readme_flags "${t}")
  endforeach()
endforeach()

execute_process(COMMAND "${BENCH_DIR}/bench_table1" --help OUTPUT_VARIABLE help)
string(REGEX MATCHALL "\n  -[^ \n]+" lines "${help}")
set(help_flags)
foreach(l IN LISTS lines)
  string(STRIP "${l}" flag)
  string(REGEX REPLACE "^--fault-.*" "--fault-<knob>" flag "${flag}")
  list(APPEND help_flags "${flag}")
endforeach()
list(REMOVE_DUPLICATES help_flags)

foreach(f IN LISTS readme_flags)
  if(NOT f IN_LIST help_flags)
    message(SEND_ERROR "README shared-flags row ${f} is not in bench_table1 --help")
  endif()
endforeach()
foreach(f IN LISTS help_flags)
  if(NOT f IN_LIST readme_flags)
    message(SEND_ERROR "bench_table1 --help flag ${f} has no README shared-flags row")
  endif()
endforeach()
list(LENGTH help_flags n)
if(n LESS 16)
  message(SEND_ERROR "parsed only ${n} flags from bench_table1 --help")
endif()
