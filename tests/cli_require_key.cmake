# gen c432 -> lock with SCHEME/OPTS at lock seed 2 -> attack --require-key,
# a lock-matrix CI leg in miniature. Passes only if the attack exits 0 and
# prints "recovered key (proved)": a wrong SARLock key differs from the
# oracle on a handful of inputs, so only a proof can vouch for it, and a
# cyclic Full-Lock key is proved on the netlist it specialises the lock to.
#
#   cmake -DCLI=<cli> -DWORK=<work dir> -DSCHEME=<name> -DOPTS=<K=V,...>
#         -P cli_require_key.cmake
file(MAKE_DIRECTORY "${WORK}")
function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "'${ARGN}' exited '${rc}'\nstdout: ${out}\nstderr: ${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()
run_cli(gen c432 c432.bench --seed 1)
run_cli(lock c432.bench locked.bench --scheme ${SCHEME} --opt ${OPTS} --seed 2)
run_cli(attack locked.bench c432.bench 300 --require-key)
if(NOT out MATCHES "recovered key \\(proved\\)")
  message(FATAL_ERROR "attack did not prove its key:\n${out}")
endif()
