# The Table 1 part of timer_io at seed 1234 must write a sweep CSV
# byte-identical to bench_table1 -j1 --sweep-csv: proof that the timing
# scenario factory is observational.
#
#   cmake -DPERFBENCH=<bin> -DREFERENCE=<bench_table1> -DWORK_DIR=<dir> -P table1_csv_identity.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${PERFBENCH}" --workload timer_io --seed 1234 --seconds 0 --trace 0
          --csv-dir "${WORK_DIR}"
  OUTPUT_QUIET RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "paratick_perfbench failed (${bench_rc})")
endif()

execute_process(
  COMMAND "${REFERENCE}" -j1 --quiet --sweep-csv "${WORK_DIR}/reference.csv"
  OUTPUT_QUIET RESULT_VARIABLE ref_rc)
if(NOT ref_rc EQUAL 0)
  message(FATAL_ERROR "bench_table1 failed (${ref_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/table1_sweep.csv"
          "${WORK_DIR}/reference.csv"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "timer_io Table 1 sweep CSV differs from bench_table1 -j1")
endif()
