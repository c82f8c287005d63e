cmake_minimum_required(VERSION 3.16)

# Fail unless `harmoniad --stdio` answers a fixed request stream with
# exactly the checked-in response bytes. The output is compared in
# memory and written to ACTUAL only on a mismatch, for diffing.
#
# usage: cmake -DHARMONIAD=/path/to/harmoniad -DREQUESTS=in.jsonl
#              -DEXPECTED=out.jsonl -DACTUAL=mismatch.jsonl
#              -P check_serve_wire.cmake
execute_process(COMMAND ${HARMONIAD} --stdio
                INPUT_FILE ${REQUESTS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE log
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "harmoniad --stdio exited with ${status}:\n${log}")
endif()

file(READ ${EXPECTED} expected)
if(NOT "${actual}" STREQUAL "${expected}")
    file(WRITE ${ACTUAL} "${actual}")
    string(LENGTH "${actual}" actual_size)
    string(LENGTH "${expected}" expected_size)
    message(FATAL_ERROR
        "wire bytes changed: ${ACTUAL} (${actual_size} B) differs from "
        "${EXPECTED} (${expected_size} B); `diff` the two files")
endif()
