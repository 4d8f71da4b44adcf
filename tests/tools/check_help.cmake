# Runs ${EXE} --help and fails unless it exits 0 with the usage line
# on stdout. Usage: cmake -DEXE=<binary> -P check_help.cmake
execute_process(COMMAND ${EXE} --help
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "${EXE} --help exited ${code}: ${err}")
endif()
if(NOT out MATCHES "^usage: ")
    message(FATAL_ERROR "${EXE} --help printed no usage on stdout: "
                        "'${out}'")
endif()
