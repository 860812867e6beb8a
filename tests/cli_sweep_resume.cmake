# `sweep --resume` onto a checkpoint an older CLI wrote must refuse to run:
# that sweep (manifest label "cli_sweep") mixed the scheme index into its
# cell seeds, so finishing it now would pair its cells with cells of other
# seeds. Passes only if the sweep exits non-zero and says it refuses.
#
#   cmake -DCLI=<cli> -DWORK=<work dir> -P cli_sweep_resume.cmake
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${CLI}" gen c432 c432.bench --seed 1
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen exited '${rc}': ${err}")
endif()
file(WRITE "${WORK}/old.jsonl"
     "{\"record\":\"run_header\",\"bench\":\"cli_sweep\",\"grid_cells\":1,"
     "\"base_seed\":17}\n")
set(ENV{FULLLOCK_SWEEP_SEEDS} 1)
execute_process(COMMAND "${CLI}" sweep c432.bench 4 --scheme rll --opt keys=8
                        --jsonl old.jsonl --resume
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sweep resumed the old checkpoint\nstdout: ${out}")
endif()
if(NOT err MATCHES "refusing to resume")
  message(FATAL_ERROR "sweep exited '${rc}' without refusing:\n${err}")
endif()
