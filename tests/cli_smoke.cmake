# End-to-end smoke test of the ethshard CLI, run by ctest:
#   generate -> stats -> simulate (+ csv) -> partition -> dot -> import.
# Usage: cmake -DCLI=<path-to-ethshard> -DWORKDIR=<scratch> -P cli_smoke.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "cli_smoke.cmake needs -DCLI=... and -DWORKDIR=...")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(TRACE "${WORKDIR}/trace.csv")
set(WINDOWS "${WORKDIR}/windows.csv")
set(IMPORTED "${WORKDIR}/imported.csv")

function(run_cli expect_substring)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ethshard ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
  if(NOT expect_substring STREQUAL "" AND NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
      "ethshard ${ARGN}: expected output matching '${expect_substring}', got:\n${out}")
  endif()
endfunction()

run_cli("wrote" generate --scale 0.0003 --seed 5 --out ${TRACE})
run_cli("transactions" stats --trace ${TRACE})
set(TELEMETRY "${WORKDIR}/windows.jsonl")
set(METRICS_CSV "${WORKDIR}/metrics.csv")
run_cli("moves" simulate --trace ${TRACE} --method Hashing --shards 2
        --csv ${WINDOWS} --telemetry-out ${TELEMETRY}
        --metrics-out ${METRICS_CSV})

# Streaming telemetry: one JSONL record per window, schema v1.
if(NOT EXISTS ${TELEMETRY})
  message(FATAL_ERROR "simulate --telemetry-out did not produce ${TELEMETRY}")
endif()
file(STRINGS ${TELEMETRY} telemetry_lines)
list(LENGTH telemetry_lines telemetry_count)
if(telemetry_count LESS 1)
  message(FATAL_ERROR "telemetry file ${TELEMETRY} is empty")
endif()
foreach(line IN LISTS telemetry_lines)
  if(NOT line MATCHES "^\\{\"v\": 1, \"seq\": [0-9]+, \"window_start\": ")
    message(FATAL_ERROR "bad telemetry record: ${line}")
  endif()
endforeach()

# --metrics-out with a .csv extension selects the CSV exporter.
if(NOT EXISTS ${METRICS_CSV})
  message(FATAL_ERROR "--metrics-out did not produce ${METRICS_CSV}")
endif()
file(STRINGS ${METRICS_CSV} metrics_lines LIMIT_COUNT 1)
if(NOT metrics_lines STREQUAL "kind,name,count,value,min,max,p50,p90,p99")
  message(FATAL_ERROR
    "--metrics-out *.csv wrote a non-CSV header: ${metrics_lines}")
endif()
run_cli("commVolume" partition --trace ${TRACE} --shards 4 --method MLKP)
run_cli("digraph" dot --trace ${TRACE} --from 2016-06-01 --to 2016-08-01
        --max-nodes 10)

if(NOT EXISTS ${WINDOWS})
  message(FATAL_ERROR "simulate --csv did not produce ${WINDOWS}")
endif()

# Hand-craft a tiny BigQuery-style traces export and import it.
set(BQ "${WORKDIR}/bq_traces.csv")
file(WRITE ${BQ}
"block_number,block_timestamp,transaction_hash,from_address,to_address,value,trace_type,input
100,1500000000,0xaa,0x0000000000000000000000000000000000000001,0x0000000000000000000000000000000000000002,5,call,0xdead
100,1500000000,0xbb,0x0000000000000000000000000000000000000003,0x0000000000000000000000000000000000000004,9,call,0x
101,1500000015,0xcc,0x0000000000000000000000000000000000000001,0x0000000000000000000000000000000000000005,0,create,0x6080
")
run_cli("imported 3 calls" import --traces ${BQ} --out ${IMPORTED})
run_cli("transactions" stats --trace ${IMPORTED})

# METIS interop: export the graph, fabricate a .part file with our own
# partitioner via the partition command being deterministic is overkill —
# instead produce an all-zeros part file and evaluate it.
set(METIS_GRAPH "${WORKDIR}/graph.metis")
run_cli("vertices" metis-export --trace ${TRACE} --out ${METIS_GRAPH})
# Build a trivial 1-shard-on-0 partition file matching the vertex count.
file(STRINGS ${METIS_GRAPH} metis_lines)
list(GET metis_lines 1 header)   # line 0 is the comment
string(REGEX MATCH "^[0-9]+" metis_n "${header}")
set(part_content "")
math(EXPR last "${metis_n} - 1")
foreach(i RANGE ${last})
  string(APPEND part_content "0\n")
endforeach()
set(METIS_PART "${WORKDIR}/graph.part")
file(WRITE ${METIS_PART} "${part_content}")
run_cli("communication volume: 0" metis-eval --trace ${TRACE}
        --part ${METIS_PART} --shards 2)

# A user error must exit non-zero and name the problem on stderr, and it
# must read as a user error: no "check failed" and no source path.
function(expect_user_error expect_regex)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "ethshard ${ARGN} should fail")
  endif()
  if(NOT err MATCHES "${expect_regex}")
    message(FATAL_ERROR
      "ethshard ${ARGN}: expected stderr matching '${expect_regex}', got:\n${err}")
  endif()
  if(err MATCHES "check failed" OR err MATCHES "\\.cpp:")
    message(FATAL_ERROR
      "ethshard ${ARGN}: user error reported as an internal check:\n${err}")
  endif()
endfunction()

# Unknown strategy names and spec keys fail with the offending token.
expect_user_error("unknown strategy 'bogus' .*hashing"
  simulate --trace ${TRACE} --method Bogus)
expect_user_error("unknown key 'cut_flor' for strategy 'tr-metis'"
  simulate --trace ${TRACE} --method "tr-metis:cut_flor=1")

# Partitioner names match case-insensitively; an unknown one fails with
# the known names listed instead of printing an empty table.
run_cli("\nMLKP +[0-9]" partition --trace ${TRACE} --shards 4 --method mlkp)
expect_user_error("unknown partitioner 'Spectral'.*MLKP"
  partition --trace ${TRACE} --method Spectral)

# A trace cut off mid-row: the header, one whole row, then the first
# three fields of the next.
file(STRINGS ${TRACE} trace_lines LIMIT_COUNT 3)
list(GET trace_lines 0 trace_header)
list(GET trace_lines 1 trace_row)
list(GET trace_lines 2 trace_next)
string(REGEX MATCH "^[^,]*,[^,]*,[^,]*" trace_cut "${trace_next}")
set(TRUNCATED "${WORKDIR}/truncated.csv")
file(WRITE ${TRUNCATED} "${trace_header}\n${trace_row}\n${trace_cut}\n")
expect_user_error("trace row with 3 fields"
  simulate --trace ${TRUNCATED} --method Hashing --shards 2)

# Input that reaches the library is still reported as a user error.
set(BQ_MISSING "${WORKDIR}/bq_missing_column.csv")
file(WRITE ${BQ_MISSING} "block_number,from_address\n1,0xab\n")
expect_user_error("traces CSV is missing column 'block_timestamp'"
  import --traces ${BQ_MISSING} --out ${WORKDIR}/never.csv)
expect_user_error("unknown preset 'bogus'"
  stats --preset bogus --scale 0.0002)
expect_user_error("--shards must be between 1 and [0-9]+, got 0"
  simulate --trace ${TRACE} --method Hashing --shards 0)
expect_user_error("--scale must be positive, got -1"
  stats --scale -1)
expect_user_error("bad --shards entry 'x'"
  compare --trace ${TRACE} --shards 2,x)
set(BAD_PART "${WORKDIR}/bad.part")
file(WRITE ${BAD_PART} "0\nx\n")
expect_user_error("metis: non-numeric token in 'x'"
  metis-eval --trace ${TRACE} --part ${BAD_PART} --shards 2)
expect_user_error("cannot open --metrics-out file /nonexistent/x.json"
  simulate --trace ${TRACE} --method Hashing --metrics-out /nonexistent/x.json)

# Output paths are checked before any history is generated or replayed:
# the run fails at once, names the path and prints no replay summary.
expect_user_error("cannot open --csv file /nonexistent/d/x.csv"
  simulate --scale 0.0002 --csv /nonexistent/d/x.csv)
execute_process(
  COMMAND ${CLI} simulate --scale 0.0002 --csv /nonexistent/d/x.csv
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(out MATCHES "moves" OR err MATCHES "generating synthetic history")
  message(FATAL_ERROR
    "simulate with an unwritable --csv ran before failing:\n${out}\n${err}")
endif()

message(STATUS "cli smoke test passed")
