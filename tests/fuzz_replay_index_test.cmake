# fuzz_replay must refuse an --index that names no index, in every mode that
# takes one, instead of running nothing and reporting success.  "hybrid",
# "rowex-rs" and "hot-rs" are the names of removed arms.
#
#   cmake -DFUZZ_REPLAY=<path to fuzz_replay> -DWORK_DIR=<dir> -P <this file>

set(trace "${WORK_DIR}/fuzz_replay_index_test.trace")
execute_process(
  COMMAND "${FUZZ_REPLAY}" --record "${trace}" --kind uniform --n 256
          --seed 7 --ops 2000
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fuzz_replay --record failed (${rc})")
endif()

foreach(name nosuch hybrid rowex-rs hot-rs)
  foreach(mode "--replay;${trace}" "--shrink;${trace}" "--long;--rounds;1")
    execute_process(
      COMMAND "${FUZZ_REPLAY}" ${mode} --index ${name}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown index ${name}")
      string(REPLACE ";" " " args "${mode}")
      message(FATAL_ERROR
        "fuzz_replay ${args} --index ${name}: exit ${rc}, want 2 and "
        "'unknown index ${name}'\nstdout:\n${out}\nstderr:\n${err}")
    endif()
  endforeach()
endforeach()
