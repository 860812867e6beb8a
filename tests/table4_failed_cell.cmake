# Runs Table 4 in quick mode with cell 0 (c432, column 1x4) made to throw,
# and passes only if the driver exits 1 and prints `failed` in that cell's
# column rather than a time or `TO`.
#
#   cmake -DDRIVER=<table4_fulllock_attack> -P table4_failed_cell.cmake
set(ENV{FULLLOCK_QUICK} 1)
set(ENV{FULLLOCK_TIMEOUT_S} 1)
set(ENV{FL_FAULT} "cell:0:throw")
execute_process(COMMAND "${DRIVER}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES "\nc432 +failed ")
  message(FATAL_ERROR "cell 0 is not printed as failed:\n${out}")
endif()
