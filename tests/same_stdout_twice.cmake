# Runs a command twice and fails unless it exits 0 both times and both
# stdouts are byte-identical. Every command run this way prints
# virtual-time results only on stdout (wall-clock goes to stderr, which is
# dropped), so any difference is nondeterminism in the simulation.
#
#   cmake -DRUN=<program> "-DARGS=<arg;arg;...>" -P same_stdout_twice.cmake
if(NOT RUN)
  message(FATAL_ERROR "same_stdout_twice: RUN=<program> is required")
endif()
string(REPLACE ";" " " command "${RUN};${ARGS}")

foreach(run a b)
  execute_process(COMMAND "${RUN}" ${ARGS}
    OUTPUT_VARIABLE out_${run}
    ERROR_QUIET
    RESULT_VARIABLE code_${run})
  if(NOT code_${run} EQUAL 0)
    message(FATAL_ERROR "same_stdout_twice: ${command} exited ${code_${run}} (run ${run})\n${out_${run}}")
  endif()
endforeach()

if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "same_stdout_twice: ${command}: stdout differs between runs\n"
    "--- first run ---\n${out_a}--- second run ---\n${out_b}")
endif()
message(STATUS "same_stdout_twice: ${command}: identical stdout on both runs")
