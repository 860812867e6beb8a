# Runs a bench driver in quick mode with the flags ARGS (a space-separated
# string) and, if VAR is given, the FULLLOCK_* variable VAR set to VALUE.
# Passes only if the driver exits non-zero, names NAME (default: VAR) on
# stderr and prints nothing on stdout: a driver checks its knobs before it
# prints a cell or workload line.
#
#   cmake -DDRIVER=<driver> -DVAR=FULLLOCK_TIMEOUT_S -DVALUE=abc
#         -P bench_env_rejects.cmake
#   cmake -DDRIVER=<driver> "-DARGS=--smoke --repeat junk" -DNAME=--repeat
#         -P bench_env_rejects.cmake
set(ENV{FULLLOCK_QUICK} 1)
if(VAR)
  set(ENV{${VAR}} "${VALUE}")
endif()
if(NOT NAME)
  set(NAME "${VAR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRIVER}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "expected a non-zero exit\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${NAME}")
  message(FATAL_ERROR "stderr does not name ${NAME}:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "the driver ran before ${NAME} was checked:\n${out}")
endif()
