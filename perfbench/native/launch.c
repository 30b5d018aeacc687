/* Runs one command and reports what it cost:

     launch TIMEOUT_S PROGRAM [ARG...]

   prints "wall_ns user_us sys_us maxrss_kb wait_status timed_out" on
   stdout.  The command's own output goes to /dev/null; after TIMEOUT_S
   seconds it is killed.

   The benchmark spawns its explore jobs through this small process because
   at exec Linux records the replaced image's peak RSS in the new program's
   ru_maxrss: spawned straight from the Python harness, a job would report
   the harness's RSS, which is larger than its own. */

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern char **environ;

static pid_t child;
static volatile sig_atomic_t timed_out;

static void on_alarm(int sig)
{
  (void)sig;
  timed_out = 1;
  kill(child, SIGKILL);
}

int main(int argc, char **argv)
{
  if (argc < 3) {
    fprintf(stderr, "usage: launch TIMEOUT_S PROGRAM [ARG...]\n");
    return 2;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);

  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  int err = posix_spawn(&child, argv[2], &fa, NULL, argv + 2, environ);
  if (err != 0) {
    fprintf(stderr, "launch: %s: %s\n", argv[2], strerror(err));
    return 2;
  }
  signal(SIGALRM, on_alarm);
  alarm((unsigned)atoi(argv[1]));
  int status;
  struct rusage ru;
  while (wait4(child, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      perror("launch: wait4");
      return 2;
    }
  }
  clock_gettime(CLOCK_MONOTONIC, &t1);
  long long wall_ns =
      (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL + (t1.tv_nsec - t0.tv_nsec);
  printf("%lld %lld %lld %ld %d %d\n", wall_ns,
         (long long)ru.ru_utime.tv_sec * 1000000 + ru.ru_utime.tv_usec,
         (long long)ru.ru_stime.tv_sec * 1000000 + ru.ru_stime.tv_usec,
         ru.ru_maxrss, status, (int)timed_out);
  return 0;
}
