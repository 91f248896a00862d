# The run-loop timeline of examples/trace_timeline, per tick mode: the CSV
# header, rows in time order, and how many rows of each kind (exits by
# cause) the run prints.
#
#   cmake -DEXAMPLE_DIR=<dir> -P trace_timeline.cmake
#
# `entry` counts every return to guest mode, the one after each injection
# included; `inject` counts every injection, the back-to-back one at iret
# included (one per run in the three non-paratick modes).
cmake_minimum_required(VERSION 3.16)

set(dynticks_like
  "entry=30" "exit guest-timer-arm=15" "exit halt=14" "halt=14" "inject=14"
  "sched-in=14" "sched-out=14" "wake=13")
set(expect_periodic ${dynticks_like})
set(expect_dynticks-idle ${dynticks_like})
set(expect_full-dynticks ${dynticks_like})
set(expect_paratick
  "entry=17" "exit guest-timer-arm=8" "exit halt=8" "exit hypercall=1" "halt=8"
  "inject=7" "sched-in=8" "sched-out=8" "wake=7")

foreach(mode periodic dynticks-idle full-dynticks paratick)
  execute_process(COMMAND "${EXAMPLE_DIR}/trace_timeline" --csv ${mode}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "trace_timeline --csv ${mode}: exit ${rc}\n${err}")
    continue()
  endif()
  string(STRIP "${out}" out)
  string(REPLACE "\n" ";" lines "${out}")
  list(POP_FRONT lines header)
  if(NOT header STREQUAL "time_us,vcpu,kind,detail")
    message(SEND_ERROR "${mode}: header is '${header}'")
  endif()

  set(last 0)
  set(keys)
  foreach(line IN LISTS lines)
    string(REPLACE "," ";" fields "${line}")
    list(GET fields 0 time)
    list(GET fields 2 kind)
    if(time LESS last)
      message(SEND_ERROR "${mode}: row '${line}' is earlier than ${last} us")
    endif()
    set(last ${time})
    if(kind STREQUAL "exit")
      list(GET fields 3 cause)
      set(kind "exit ${cause}")
    endif()
    string(MAKE_C_IDENTIFIER "${kind}" id)
    if(NOT DEFINED n_${id})
      set(n_${id} 0)
      list(APPEND keys "${kind}")
    endif()
    math(EXPR n_${id} "${n_${id}} + 1")
  endforeach()

  set(got)
  list(SORT keys)
  foreach(kind IN LISTS keys)
    string(MAKE_C_IDENTIFIER "${kind}" id)
    list(APPEND got "${kind}=${n_${id}}")
    unset(n_${id})
  endforeach()
  if(NOT got STREQUAL expect_${mode})
    message(SEND_ERROR "${mode}: row counts\n  got      ${got}\n  expected ${expect_${mode}}")
  endif()
endforeach()
