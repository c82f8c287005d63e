cmake_minimum_required(VERSION 3.16)

# Fail unless every experiment `harmonia_exp --list` registers has a
# ctest entry.
#
# usage: cmake -DHARMONIA_EXP=/path/to/harmonia_exp
#              -DTESTED=name1,name2,... -P check_exp_list.cmake
execute_process(COMMAND ${HARMONIA_EXP} --list
                OUTPUT_VARIABLE listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "harmonia_exp --list exited with ${status}")
endif()
message("${listing}")

# Rows read "name | tier | description"; the header row's tier column
# says "tier", so matching the tier column skips it.
string(REGEX MATCHALL "\n[a-z0-9_]+ +\\| +(exp|bench) +\\|"
       rows "${listing}")
string(REGEX MATCH "Registered experiments \\(([0-9]+)\\)" _ "${listing}")
set(registered ${CMAKE_MATCH_1})
list(LENGTH rows parsed)
if(NOT registered OR NOT parsed EQUAL registered)
    message(FATAL_ERROR "parsed ${parsed} experiment rows, but "
                        "harmonia_exp reports '${registered}'")
endif()

string(REPLACE "," ";" tested "${TESTED}")
set(untested "")
foreach(row IN LISTS rows)
    string(REGEX MATCH "[a-z0-9_]+" name "${row}")
    if(NOT name IN_LIST tested)
        list(APPEND untested ${name})
    endif()
endforeach()
if(untested)
    message(FATAL_ERROR "registered experiments with no ctest entry "
                        "(add them in tools/CMakeLists.txt): ${untested}")
endif()
