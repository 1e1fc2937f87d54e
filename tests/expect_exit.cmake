# Runs the command given after `--` and fails unless it exits with status
# EXPECT within 30 seconds (a hang is killed and fails the test):
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <program> [args...]
set(cmd)
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status TIMEOUT 30)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit status ${EXPECT}, got ${status}")
endif()
