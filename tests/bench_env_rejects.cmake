# Runs a bench driver in quick mode with one FULLLOCK_* variable set to
# VALUE and passes only if the driver exits non-zero, names VAR on stderr and
# starts no cell (the driver prints its "<name>: N cells" line only once the
# grid is built).
#
#   cmake -DDRIVER=<driver> -DVAR=FULLLOCK_TIMEOUT_S -DVALUE=abc
#         -P bench_env_rejects.cmake
set(ENV{FULLLOCK_QUICK} 1)
set(ENV{${VAR}} "${VALUE}")
execute_process(COMMAND "${DRIVER}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "expected a non-zero exit\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${VAR}")
  message(FATAL_ERROR "stderr does not name ${VAR}:\n${err}")
endif()
if(out MATCHES "cells on")
  message(FATAL_ERROR "a cell ran before ${VAR} was checked:\n${out}")
endif()
