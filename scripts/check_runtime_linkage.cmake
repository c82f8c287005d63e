cmake_minimum_required(VERSION 3.16)

# Fail if a tool still needs the C++ runtime as a shared object: the
# shipped tools link libstdc++ and libgcc statically
# (tools/CMakeLists.txt), so no NEEDED entry of their dynamic sections
# may name libstdc++ or libgcc_s.
#
# Also fail if a binary named in NO_IOSTREAM (harmoniad) carries
# std::ios_base::Init's constructor: iostream's static set-up would run
# on every start of a daemon that writes its few lines with <cstdio>.
#
# usage: cmake -DREADELF=/usr/bin/readelf -DBINARIES=tool1,tool2
#              [-DNO_IOSTREAM=tool1] -P check_runtime_linkage.cmake
string(REPLACE "," ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
    execute_process(COMMAND ${READELF} -d ${binary}
                    OUTPUT_VARIABLE dynamic
                    ERROR_VARIABLE log
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "readelf -d ${binary} exited with ${status}:\n${log}")
    endif()
    # Lines like " 0x...1 (NEEDED)  Shared library: [libc.so.6]". Each
    # keeps its brackets balanced: CMake does not split a list inside
    # an open "[".
    string(REGEX MATCHALL "\\(NEEDED\\)[^\n]*" entries "${dynamic}")
    set(needed "")
    foreach(entry IN LISTS entries)
        string(REGEX REPLACE ".*\\[([^]]*)\\].*" "\\1" library "${entry}")
        if(library MATCHES "^(libstdc\\+\\+|libgcc_s)")
            message(FATAL_ERROR
                "${binary} needs ${library}: the C++ runtime must be "
                "linked statically")
        endif()
        string(APPEND needed " ${library}")
    endforeach()
    message(STATUS "${binary} needs:${needed}")
endforeach()

string(REPLACE "," ";" no_iostream "${NO_IOSTREAM}")
foreach(binary IN LISTS no_iostream)
    execute_process(COMMAND ${READELF} -sW ${binary}
                    OUTPUT_VARIABLE symbols
                    ERROR_VARIABLE log
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "readelf -sW ${binary} exited with ${status}:\n${log}")
    endif()
    if(symbols MATCHES "_ZNSt8ios_base4InitC[12]Ev")
        message(FATAL_ERROR
            "${binary} links std::ios_base::Init: a translation unit "
            "includes <iostream>")
    endif()
    message(STATUS "${binary}: no std::ios_base::Init")
endforeach()
