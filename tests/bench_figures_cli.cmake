# cmake -DBIN=<bench_figures> -P bench_figures_cli.cmake
# Every malformed command line must exit 2 with the usage on stderr.
# One command line per entry; '|' separates its arguments.
set(cases
    "--scale=0.5" "--scale|abc" "--scale|0" "--scale|-1" "--scale|nan"
    "--scale" "--series" "--mechanism=breaker" "--figures=fig99"
    "--figures=" "--cell=no-such-cell" "--json-summary=" "--trace="
    "--figures=fig02|--cell=q7.drrs" "--list|--cell=q7.drrs")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: bench_figures")
    message(FATAL_ERROR "'${case}': exit ${rc}, stderr:\n${err}")
  endif()
endforeach()
