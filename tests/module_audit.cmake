# Dead-module audit, run by ctest: every header under src/ must be
# reachable by #include from a program the project ships — tools/,
# bench/, perfbench/ or examples/ — directly or through the headers and
# .cpp files of other reachable modules. A header that only tests/ (or
# nothing at all) includes is a module nothing runs, and fails the audit.
# Usage: cmake -DSOURCE_DIR=<repo root> -P module_audit.cmake

cmake_minimum_required(VERSION 3.16)  # list(POP_FRONT), if(IN_LIST)

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "module_audit.cmake needs -DSOURCE_DIR=...")
endif()

set(include_regex "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\"")

# Appends to `out_var` the project headers (paths relative to src/) that
# `file` includes.
function(project_includes file out_var)
  file(STRINGS "${file}" lines REGEX "${include_regex}")
  set(found "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "${include_regex}.*" "\\1" header "${line}")
    if(EXISTS "${SOURCE_DIR}/src/${header}")
      list(APPEND found "${header}")
    endif()
  endforeach()
  set(${out_var} "${found}" PARENT_SCOPE)
endfunction()

set(worklist "")
foreach(root tools bench perfbench examples)
  file(GLOB_RECURSE root_files
    "${SOURCE_DIR}/${root}/*.cpp" "${SOURCE_DIR}/${root}/*.hpp")
  list(APPEND worklist ${root_files})
endforeach()

# Breadth-first over includes: a reached header brings in its own
# includes and those of its implementation file.
set(reached "")
while(worklist)
  list(POP_FRONT worklist file)
  project_includes("${file}" headers)
  foreach(header IN LISTS headers)
    if(header IN_LIST reached)
      continue()
    endif()
    list(APPEND reached "${header}")
    list(APPEND worklist "${SOURCE_DIR}/src/${header}")
    string(REGEX REPLACE "\\.hpp$" ".cpp" impl "${header}")
    if(EXISTS "${SOURCE_DIR}/src/${impl}")
      list(APPEND worklist "${SOURCE_DIR}/src/${impl}")
    endif()
  endforeach()
endwhile()

file(GLOB_RECURSE all_headers RELATIVE "${SOURCE_DIR}/src"
  "${SOURCE_DIR}/src/*.hpp")
list(SORT all_headers)
set(dead "")
foreach(header IN LISTS all_headers)
  if(NOT header IN_LIST reached)
    list(APPEND dead "${header}")
  endif()
endforeach()

if(dead)
  list(JOIN dead "\n  " dead_lines)
  message(FATAL_ERROR
    "module audit: no tool, bench, perfbench harness or example reaches "
    "these headers; delete the modules or use them:\n  ${dead_lines}")
endif()
list(LENGTH all_headers header_count)
message(STATUS "module audit passed: ${header_count} headers reached")
