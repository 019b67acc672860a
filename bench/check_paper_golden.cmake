# Runs `bench_paper all` at the FROTE_FAST protocol and compares its stdout
# with the committed golden byte for byte. The other protocol knobs are
# cleared so the caller's environment cannot change the protocol;
# FROTE_NUM_THREADS passes through, because the output must not depend on it.
#
#   cmake -DBENCH_PAPER=<bench_paper> -DGOLDEN=<fast.txt> -DACTUAL=<out.txt>
#         -P check_paper_golden.cmake

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=FROTE_RUNS --unset=FROTE_TAU
          --unset=FROTE_SCALE --unset=FROTE_FULL FROTE_FAST=1
          ${BENCH_PAPER} all
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper all exited with ${status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "bench_paper all differs from the golden; see\n"
    "  diff ${GOLDEN} ${ACTUAL}\n"
    "A change that moves the golden on purpose says why in CHANGES.md.")
endif()
