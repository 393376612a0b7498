# Metric catalog check, run by CTest:
#   cmake -DSOURCE_DIR=<repo root> -P metric_catalog.cmake
# Every "dbi_..." metric-name string literal under src/ must have a row
# in README.md's metric catalog (the table after "Metric catalog"). A
# row name ending in `*` covers every metric with that prefix, as
# `dbi_trace_rle_*` does. Fails listing each name without a row.

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -P metric_catalog.cmake")
endif()

# Metric names registered in the library: whole string literals only,
# so message text such as "dbi_groups byte " is not a metric.
file(GLOB_RECURSE sources "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/src/*.hpp")
set(metrics "")
foreach(src ${sources})
  file(READ "${src}" content)
  string(REGEX MATCHALL "\"dbi_[a-z0-9_]+\"" found "${content}")
  foreach(literal ${found})
    string(REPLACE "\"" "" name "${literal}")
    list(APPEND metrics "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES metrics)
list(SORT metrics)
if(NOT metrics)
  message(FATAL_ERROR "no dbi_ metric literals found under ${SOURCE_DIR}/src")
endif()

# Catalog rows: the first cell of each table row after the heading, up
# to the blank line that ends the table.
file(READ "${SOURCE_DIR}/README.md" readme)
string(FIND "${readme}" "Metric catalog" at)
if(at EQUAL -1)
  message(FATAL_ERROR "README.md has no \"Metric catalog\" table")
endif()
string(SUBSTRING "${readme}" ${at} -1 readme)
string(FIND "${readme}" "\n|" table_at)
string(SUBSTRING "${readme}" ${table_at} -1 table)
string(FIND "${table}" "\n\n" table_end)
string(SUBSTRING "${table}" 0 ${table_end} table)
string(REGEX MATCHALL "\n\\|[^|\n]*" first_cells "${table}")
set(rows "")
foreach(cell ${first_cells})
  string(REGEX MATCHALL "`dbi_[a-z0-9_]+\\*?" names "${cell}")
  foreach(name ${names})
    string(REPLACE "`" "" name "${name}")
    list(APPEND rows "${name}")
  endforeach()
endforeach()

set(missing "")
foreach(metric ${metrics})
  set(covered FALSE)
  foreach(row ${rows})
    if(row STREQUAL metric)
      set(covered TRUE)
    elseif(row MATCHES "\\*$")
      string(REGEX REPLACE "\\*$" "" prefix "${row}")
      string(FIND "${metric}" "${prefix}" pos)
      if(pos EQUAL 0)
        set(covered TRUE)
      endif()
    endif()
  endforeach()
  if(NOT covered)
    list(APPEND missing "${metric}")
  endif()
endforeach()

list(LENGTH metrics metric_count)
if(missing)
  list(LENGTH missing missing_count)
  string(REPLACE ";" "\n  " missing_lines "${missing}")
  message(FATAL_ERROR
          "${missing_count} of ${metric_count} metric names under src/ have "
          "no row in README.md's metric catalog:\n  ${missing_lines}")
endif()
message(STATUS "metric catalog covers all ${metric_count} metric names")
