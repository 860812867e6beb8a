# Runs the CLI with ARGS (a space-separated string) and passes only if it
# exits 2 and its stderr matches EXPECT. The file and socket arguments in
# ARGS do not exist, so an exit other than 2 also means the CLI read files
# or connected before it checked its flags.
#
#   cmake -DCLI=<cli> -DARGS="attack a.bench b.bench --bogus-flag 7"
#         -DEXPECT="<regex>" -P cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "expected exit 2, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
