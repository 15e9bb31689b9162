# Regression test for flag checking: every command rejects a flag it does
# not read with a usage error (exit 2, "unknown flag --X") before any
# dataset is touched — a typo such as --algorithm=b or a flag of another
# command must never silently run the defaults.

function(expect_rejected pattern)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  WORKING_DIRECTORY ${WORK_DIR})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "expected usage-error exit 2, got ${rc}: ${ARGN}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
        "expected '${pattern}' in stderr of: ${ARGN}\n${out}${err}")
  endif()
endfunction()

function(expect_ok)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  WORKING_DIRECTORY ${WORK_DIR})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}${err}")
  endif()
endfunction()

# The datasets do not exist: reaching the loader would fail with a
# different message, so a match proves the check runs first.
set(ABSENT --r=absent_r.ds --s=absent_s.ds)

expect_rejected("unknown flag --algorithm" ${CLI} join ${ABSENT} --algorithm=b)
expect_rejected("unknown flag --shards" ${CLI} join ${ABSENT} --shards=8)
expect_rejected("unknown flag --shard-threads"
                ${CLI} batch ${ABSENT} --requests=absent.txt
                --shard-threads=2)
expect_rejected("unknown flag --shards" ${CLI} serve ${ABSENT} --shards=4)
# Spill I/O is synchronous; the flag that added an async pool is gone.
expect_rejected("unknown flag --spill-io-threads"
                ${CLI} batch ${ABSENT} --requests=absent.txt
                --spill-io-threads=2)
expect_rejected("unknown flag --spill-io-threads"
                ${CLI} serve ${ABSENT} --spill-io-threads=2)
# A flag valid for one command is still unknown to another.
expect_rejected("unknown flag --limit" ${CLI} estimate ${ABSENT} --limit=3)
expect_rejected("unknown flag --inflight" ${CLI} join ${ABSENT} --inflight=2)
expect_rejected("unknown flag --k" ${CLI} info --data=absent_r.ds --k=3)
expect_rejected("unknown flag --report"
                ${CLI} semijoin ${ABSENT} --report)
expect_rejected("unknown flag --trace"
                ${CLI} knn --data=absent_r.ds --trace=t.json)
expect_rejected("unknown flag --out" ${CLI} stream ${ABSENT} --out=x)
expect_rejected("unknown flag --seeds"
                ${CLI} generate --kind=uniform --n=10 --seeds=3
                --out=flags_junk.ds)
# The message names what the command does accept.
expect_rejected("join accepts --r --s --k --algo"
                ${CLI} join ${ABSENT} --algorithm=b)

# Every documented flag of a command still runs.
expect_ok(${CLI} generate --kind=clusters --n=300 --seed=5 --clusters=4
          --sigma=0.05 --out=flags_r.ds --log-level=warn)
expect_ok(${CLI} generate --kind=rects --n=200 --seed=6 --side=20
          --out=flags_s.ds)
expect_ok(${CLI} join --r=flags_r.ds --s=flags_s.ds --k=20 --algo=b
          --metric=l1 --self --estimator=histogram --limit=5 --stats
          --report-json=flags_report.json --report)
expect_ok(${CLI} stream --r=flags_r.ds --s=flags_s.ds --batch=4 --batches=2
          --algo=hs --metric=linf --trace-jsonl=flags_trace.jsonl)
